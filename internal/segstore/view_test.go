package segstore

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
)

// TestViewMatchesStore freezes views at checkpoints of an append/evict
// replay and requires every count kernel on the view to keep answering
// exactly what the store answered at freeze time — while the store moves
// on, seals new segments, and evicts past the view. Views are recycled the
// way a steady-state publisher recycles them.
func TestViewMatchesStore(t *testing.T) {
	const (
		series   = 70
		segRows  = 128
		capacity = 300
		steps    = 900
		stride   = 61
	)
	ts, err := NewTiered(series, capacity, Options{Dir: t.TempDir(), SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	pairs := testPairs(series)
	row, ev := bitset.New(series), bitset.New(series)
	all := make([]int, series)
	for i := range all {
		all[i] = i
	}

	type frozen struct {
		view      *TieredView
		congested []int
		allGood   int
		pairsGood []int
		rows      []*bitset.Set
	}
	var pendingMu sync.Mutex
	var pending *frozen // checked (and recycled) one stride later

	checkFrozen := func(f *frozen) {
		t.Helper()
		v := f.view
		if v.Snapshots() != len(f.rows) {
			t.Fatalf("view retains %d snapshots, froze %d", v.Snapshots(), len(f.rows))
		}
		for i := 0; i < series; i++ {
			if g, w := v.CongestedCount(i), f.congested[i]; g != w {
				t.Fatalf("series %d: view congested count %d, frozen %d", i, g, w)
			}
		}
		if g := v.CountAllGood(all); g != f.allGood {
			t.Fatalf("view all-good %d, frozen %d", g, f.allGood)
		}
		out := make([]int, len(pairs))
		v.CountPairsGood(pairs, out)
		for i := range pairs {
			if out[i] != f.pairsGood[i] {
				t.Fatalf("pair %v: view good count %d, frozen %d", pairs[i], out[i], f.pairsGood[i])
			}
		}
		got := bitset.New(series)
		for u, want := range f.rows {
			v.RowInto(u, got)
			if !got.Equal(want) {
				t.Fatalf("row %d: view %v, frozen %v", u, got, want)
			}
			for i := 0; i < series; i++ {
				if v.Bit(i, u) != want.Contains(i) {
					t.Fatalf("bit (%d, %d): view disagrees with frozen row", i, u)
				}
			}
		}
	}

	var recycle *TieredView
	for step := 0; step < steps; step++ {
		fillRow(row, series, step, 7)
		ts.AppendEvict(row, ev)
		if (step+1)%stride != 0 {
			continue
		}
		f := &frozen{congested: make([]int, series), pairsGood: make([]int, len(pairs))}
		for i := 0; i < series; i++ {
			f.congested[i] = ts.CongestedCount(i)
		}
		f.allGood = ts.CountAllGood(all)
		ts.CountPairsGood(pairs, f.pairsGood)
		for u := 0; u < ts.Snapshots(); u++ {
			r := bitset.New(series)
			ts.RowInto(u, r)
			f.rows = append(f.rows, r)
		}
		f.view = ts.SnapshotView(recycle)
		recycle = nil
		checkFrozen(f) // immediately after freeze

		pendingMu.Lock()
		old := pending
		pending = f
		pendingMu.Unlock()
		if old != nil {
			// One full stride of appends, seals and evictions later: the
			// earlier view must still answer as of its own freeze point.
			checkFrozen(old)
			old.view.Close()
			old.view.Close() // idempotent
			recycle = old.view
		}
	}
}

// TestViewImmutable pins the mutation guards: every append/evict entry
// point on a view panics rather than corrupting the frozen window.
func TestViewImmutable(t *testing.T) {
	ts, err := NewTiered(8, 128, Options{Dir: t.TempDir(), SegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	row := bitset.New(8)
	for i := 0; i < 70; i++ {
		fillRow(row, 8, i, 3)
		ts.AppendEvict(row, nil)
	}
	v := ts.SnapshotView(nil)
	defer v.Close()
	for name, fn := range map[string]func(){
		"AppendEvict": func() { v.AppendEvict(row, nil) },
		"EvictOldest": func() { v.EvictOldest(nil) },
		"DropOldest":  func() { v.DropOldest(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a view did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestReleaseMappedConcurrentWithViews is the -race regression for the
// unsynchronized-madvise bug: the owner goroutine keeps appending (sealing
// segments), calling ReleaseMapped, and finally Close, while reader
// goroutines hold refcounted views and sweep count kernels over the shared
// mappings the whole time. ReleaseMapped must skip any segment a view still
// references (refcount > 1), and Close must leave shared segments mapped
// until the last view releases them — the counts stay exact throughout.
func TestReleaseMappedConcurrentWithViews(t *testing.T) {
	const (
		series   = 70
		segRows  = 64
		capacity = 256
		steps    = 640
		readers  = 4
	)
	ts, err := NewTiered(series, capacity, Options{Dir: t.TempDir(), SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}

	pairs := testPairs(series)
	all := make([]int, series)
	for i := range all {
		all[i] = i
	}
	row, ev := bitset.New(series), bitset.New(series)

	var wg sync.WaitGroup
	errs := make(chan string, readers*8)
	spawnReader := func(v *TieredView, congested []int, allGood int, pairsGood []int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer v.Close()
			out := make([]int, len(pairs))
			for rep := 0; rep < 50; rep++ {
				for i := 0; i < series; i++ {
					if v.CongestedCount(i) != congested[i] {
						errs <- "congested count drifted under ReleaseMapped"
						return
					}
				}
				if v.CountAllGood(all) != allGood {
					errs <- "all-good count drifted under ReleaseMapped"
					return
				}
				v.CountPairsGood(pairs, out)
				for i := range pairs {
					if out[i] != pairsGood[i] {
						errs <- "pair count drifted under ReleaseMapped"
						return
					}
				}
			}
		}()
	}

	launched := 0
	for step := 0; step < steps; step++ {
		fillRow(row, series, step, 7)
		ts.AppendEvict(row, ev)
		if ts.SealedSegments() == 0 || (step+1)%97 != 0 || launched >= readers {
			continue
		}
		congested := make([]int, series)
		for i := 0; i < series; i++ {
			congested[i] = ts.CongestedCount(i)
		}
		allGood := ts.CountAllGood(all)
		pairsGood := make([]int, len(pairs))
		ts.CountPairsGood(pairs, pairsGood)
		spawnReader(ts.SnapshotView(nil), congested, allGood, pairsGood)
		launched++
		ts.ReleaseMapped() // races the reader's count sweeps — the bugfix under test
	}
	if launched == 0 {
		t.Fatal("no readers launched; tune the schedule")
	}
	ts.ReleaseMapped()
	// Close the store while views are still reading: their segments must
	// survive until each view's own Close.
	ts.Close()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// sameActive reports whether two views froze the same window and hold the
// same active buffer word for word, with the same per-column popcounts.
func sameActive(a, b *TieredView) bool {
	if a.n != b.n || a.retained != b.retained || a.active.base != b.active.base ||
		len(a.backing) != len(b.backing) || len(a.segs) != len(b.segs) {
		return false
	}
	for w := range a.backing {
		if a.backing[w] != b.backing[w] {
			return false
		}
	}
	for i := range a.active.meta {
		if a.active.meta[i].pop != b.active.meta[i].pop {
			return false
		}
	}
	return true
}

// TestSnapshotViewDeltaMatchesFullCopy pins the recycled view's delta copy:
// over random appends (set and word paths), evictions and drops that seal
// many segments, a view recycled from the same store — one generation old
// or several, across a seal or not, or last frozen from another store —
// holds exactly the active buffer a fresh view copies in full, and
// CopyCost reports a delta only while the buffer generation is unchanged.
func TestSnapshotViewDeltaMatchesFullCopy(t *testing.T) {
	const series, segRows, capacity = 70, 128, 300
	rng := rand.New(rand.NewSource(5))
	ts, err := NewTiered(series, capacity, Options{Dir: t.TempDir(), SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	other, err := NewTiered(series, capacity, Options{Dir: t.TempDir(), SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	row := bitset.New(series)
	rowWords := make([]uint64, (series+wordBits-1)/wordBits)
	appendOne := func(s *TieredStore, tick int) {
		fillRow(row, series, tick, 2+rng.Intn(6))
		if rng.Intn(2) == 0 {
			s.AppendEvict(row, nil)
			return
		}
		for i := range rowWords {
			rowWords[i] = 0
		}
		row.ForEach(func(i int) bool { rowWords[i/wordBits] |= 1 << uint(i%wordBits); return true })
		s.AppendEvictWords(rowWords, nil)
	}

	views := make([]*TieredView, 3)
	deltas := 0
	for step, tick := 0, 0; step < 400; step++ {
		switch op := rng.Intn(8); {
		case op < 5:
			for k := rng.Intn(segRows / 2); k >= 0; k-- {
				appendOne(ts, tick)
				tick++
			}
		case op < 6:
			ts.EvictOldest(nil)
		case op < 7:
			ts.DropOldest(rng.Intn(capacity / 4))
		default:
			appendOne(other, tick)
			tick++
		}
		c := rng.Intn(len(views))
		v := views[c]
		if v != nil && rng.Intn(6) == 0 {
			v = other.SnapshotView(v)
		}
		wantFull := v == nil || v.from != ts.id || v.active.base != ts.active.base
		v = ts.SnapshotView(v)
		views[c] = v
		ref := ts.SnapshotView(nil)
		if !sameActive(v, ref) {
			t.Fatalf("step %d: recycled view differs from a full copy", step)
		}
		ref.Close()
		words, full := v.CopyCost()
		if full != wantFull {
			t.Fatalf("step %d: CopyCost full = %v, want %v", step, full, wantFull)
		}
		if full && words != series*segRows/wordBits || !full && words > series*segRows/wordBits {
			t.Fatalf("step %d: copied %d words (full %v), buffer holds %d", step, words, full, series*segRows/wordBits)
		}
		if !full {
			deltas++
		}
	}
	if deltas == 0 {
		t.Fatal("no recycle took the delta path")
	}
	if ts.SealedSegments() < 4 {
		t.Fatalf("only %d seals: the replay must cross several", ts.SealedSegments())
	}
	for _, v := range views {
		v.Close()
	}
}
