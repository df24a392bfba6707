package segstore

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bitset"
	"repro/internal/snapstore"
)

// fillRow derives a deterministic sparse congestion row from a lifetime
// index: roughly density of the series congested, pattern varying with t.
func fillRow(dst *bitset.Set, series, t, density int) {
	dst.Clear()
	for i := 0; i < series; i++ {
		if (t*31+i*17+t*i)%density == 0 {
			dst.Add(i)
		}
	}
}

func testPairs(series int) []snapstore.Pair {
	var pairs []snapstore.Pair
	for i := 0; i < series; i++ {
		for d := 1; d <= 3 && i+d < series; d++ {
			pairs = append(pairs, snapstore.Pair{A: i, B: i + d})
		}
	}
	return pairs
}

// TestTieredMatchesRing drives a tiered store and a RAM ring through the
// same append/evict/drop sequence and requires every count kernel to agree
// exactly at every step — across segment seals, the ring's wraparound, and
// windows whose head sits mid-segment. This is the subsystem's core
// contract: disk is an implementation detail the counts cannot see.
func TestTieredMatchesRing(t *testing.T) {
	const (
		series   = 70 // straddles a word boundary
		segRows  = 128
		capacity = 300 // not a multiple of segRows: head usually mid-segment
		steps    = 1000
	)
	dir := t.TempDir()
	ts, err := NewTiered(series, capacity, Options{Dir: dir, SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ring := snapstore.NewRing(series, capacity)

	row := bitset.New(series)
	evT, evR := bitset.New(series), bitset.New(series)
	pairs := testPairs(series)
	outT, outR := make([]int, len(pairs)), make([]int, len(pairs))
	scratch := make([]uint64, ring.Words())
	var ringWS snapstore.CountWorkspace
	all := make([]int, series)
	for i := range all {
		all[i] = i
	}

	check := func(step int) {
		t.Helper()
		if ts.Snapshots() != ring.Snapshots() || ts.Appended() != ring.Appended() {
			t.Fatalf("step %d: tiered %d/%d snapshots, ring %d/%d",
				step, ts.Snapshots(), ts.Appended(), ring.Snapshots(), ring.Appended())
		}
		for i := 0; i < series; i++ {
			if g, w := ts.CongestedCount(i), ring.CongestedCount(i); g != w {
				t.Fatalf("step %d: series %d congested count %d, ring %d", step, i, g, w)
			}
		}
		ts.CountPairsGood(pairs, outT)
		ring.CountPairsGoodWS(&ringWS, pairs, outR)
		for i := range pairs {
			if outT[i] != outR[i] {
				t.Fatalf("step %d: pair %v good count %d, ring %d", step, pairs[i], outT[i], outR[i])
			}
		}
		for i := 0; i+2 < series; i += 7 {
			sub := all[i : i+3]
			if g, w := ts.CountAllGood(sub), ring.CountAllGood(sub, scratch); g != w {
				t.Fatalf("step %d: all-good %v count %d, ring %d", step, sub, g, w)
			}
			want := ring.Snapshots() - ring.CountAnyCongested([]int{i, i + 2}, scratch)
			if g := ts.CountPairGood(i, i+2); g != want {
				t.Fatalf("step %d: pair-good (%d,%d) count %d, ring %d", step, i, i+2, g, want)
			}
		}
		if g, w := ts.CountAllGood(nil), ring.CountAllGood(nil, scratch); g != w {
			t.Fatalf("step %d: empty all-good %d, ring %d", step, g, w)
		}
	}

	for step := 0; step < steps; step++ {
		switch {
		case step%97 == 96:
			dT := ts.DropOldest(step % 37)
			dR := ring.DropOldest(step % 37)
			if dT != dR {
				t.Fatalf("step %d: DropOldest dropped %d, ring %d", step, dT, dR)
			}
		case step%23 == 22:
			okT := ts.EvictOldest(evT)
			okR := ring.EvictOldest(evR)
			if okT != okR || !evT.Equal(evR) {
				t.Fatalf("step %d: EvictOldest (%v, %v) vs ring (%v, %v)", step, okT, evT, okR, evR)
			}
		default:
			fillRow(row, series, step, 5+step%11)
			okT := ts.AppendEvict(row, evT)
			okR := ring.AppendEvict(row, evR)
			if okT != okR || !evT.Equal(evR) {
				t.Fatalf("step %d: AppendEvict (%v, %v) vs ring (%v, %v)", step, okT, evT, okR, evR)
			}
		}
		if step%13 == 0 || step == steps-1 {
			check(step)
		}
		if step%101 == 0 {
			// Window rows must come back identically, oldest first.
			for w := 0; w < ts.Snapshots(); w += 29 {
				ts.RowInto(w, evT)
				ring.RowInto(w, evR)
				if !evT.Equal(evR) {
					t.Fatalf("step %d: window row %d %v, ring %v", step, w, evT, evR)
				}
			}
		}
	}
	if ts.SealedSegments() == 0 {
		t.Fatal("no segments sealed — the run never spilled")
	}
	check(steps)
	ts.ReleaseMapped() // pages fault back in; counts must be unchanged
	check(steps + 1)
}

// TestTieredBitAndRows pins the row-addressing paths (Bit, RowInto) across
// the sealed/active boundary.
func TestTieredBitAndRows(t *testing.T) {
	const series, segRows, capacity = 10, 64, 200
	ts, err := NewTiered(series, capacity, Options{Dir: t.TempDir(), SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ring := snapstore.NewRing(series, capacity)
	row := bitset.New(series)
	for step := 0; step < 170; step++ {
		fillRow(row, series, step, 3)
		ts.AppendEvict(row, nil)
		ring.AppendEvict(row, nil)
	}
	for w := 0; w < ring.Snapshots(); w++ {
		for i := 0; i < series; i++ {
			if g, want := ts.Bit(i, w), ring.Bit(i, w); g != want {
				t.Fatalf("Bit(%d, %d) = %v, ring %v", i, w, g, want)
			}
		}
	}
	if ts.Bit(0, -1) || ts.Bit(0, ring.Snapshots()) {
		t.Fatal("out-of-window Bit must be false")
	}
}

// TestTieredRecovery seals segments, closes the store, and reopens the
// directory with OpenReader: every sealed row must read back exactly, and
// stray temp files must be ignored.
func TestTieredRecovery(t *testing.T) {
	const series, segRows, capacity, steps = 33, 64, 128, 400
	dir := t.TempDir()
	ts, err := NewTiered(series, capacity, Options{Dir: dir, SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	var history []*bitset.Set
	row := bitset.New(series)
	for step := 0; step < steps; step++ {
		fillRow(row, series, step, 4+step%7)
		ts.AppendEvict(row, nil)
		history = append(history, row.Clone())
	}
	sealed := ts.SealedSegments()
	if sealed != steps/segRows {
		t.Fatalf("%d segments sealed, want %d", sealed, steps/segRows)
	}
	if ts.SpilledBytes() <= 0 {
		t.Fatal("no bytes spilled")
	}
	ts.Close()

	// A crash can leave temp files behind; recovery must not trip on them.
	if err := os.WriteFile(filepath.Join(dir, "seg-junk.seg.tmp-1"), []byte("torn"), 0o666); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Segments() != sealed || r.Rows() != sealed*segRows || r.NumSeries() != series {
		t.Fatalf("reader: %d segments × %d rows over %d series, want %d × %d over %d",
			r.Segments(), r.SegmentRows(), r.NumSeries(), sealed, segRows, series)
	}
	got := bitset.New(series)
	for abs := 0; abs < r.Rows(); abs++ {
		r.RowInto(abs, got)
		if !got.Equal(history[abs]) {
			t.Fatalf("sealed row %d reads back %v, want %v", abs, got, history[abs])
		}
	}
	for i := 0; i < series; i++ {
		want := 0
		for abs := 0; abs < r.Rows(); abs++ {
			if history[abs].Contains(i) {
				want++
			}
		}
		if g := r.CongestedCount(i); g != want {
			t.Fatalf("series %d sealed count %d, want %d", i, g, want)
		}
	}
}

// TestTieredCorruptionDetected flips one data byte of a sealed segment and
// requires OpenReader to reject the store with a segstore: CRC error.
func TestTieredCorruptionDetected(t *testing.T) {
	const series, segRows = 8, 64
	dir := t.TempDir()
	ts, err := NewTiered(series, 1000, Options{Dir: dir, SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	row := bitset.New(series)
	for step := 0; step < segRows; step++ {
		fillRow(row, series, step, 3)
		ts.AppendEvict(row, nil)
	}
	ts.Close()
	path := filepath.Join(dir, "seg-00000000.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x10
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(dir); err == nil {
		t.Fatal("OpenReader accepted a segment with a flipped data byte")
	} else if want := "segstore:"; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Fatalf("error %q lacks the segstore: prefix", err)
	}
}

// TestTieredResetAndRefusal pins the directory-reuse contract: a second
// NewTiered without Reset refuses, with Reset it starts clean.
func TestTieredResetAndRefusal(t *testing.T) {
	const series, segRows = 4, 64
	dir := t.TempDir()
	ts, err := NewTiered(series, 500, Options{Dir: dir, SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	row := bitset.New(series)
	for step := 0; step < 2*segRows; step++ {
		fillRow(row, series, step, 2)
		ts.AppendEvict(row, nil)
	}
	ts.Close()
	if _, err := NewTiered(series, 500, Options{Dir: dir, SegmentRows: segRows}); err == nil {
		t.Fatal("NewTiered reused a populated directory without Reset")
	}
	ts2, err := NewTiered(series, 500, Options{Dir: dir, SegmentRows: segRows, Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	if ts2.Appended() != 0 || ts2.SealedSegments() != 0 {
		t.Fatalf("reset store starts with %d appended, %d sealed", ts2.Appended(), ts2.SealedSegments())
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Segments() != 0 {
		t.Fatalf("reset directory still lists %d segments", r.Segments())
	}
}

// TestSegmentRoundTrip pins encode → parse as an exact inverse on a
// hand-built buffer exercising zero columns, dense columns, and interior
// spans.
func TestSegmentRoundTrip(t *testing.T) {
	const series, segRows = 5, 192
	words := segRows / wordBits
	s := &segment{
		base:  segRows * 3,
		rows:  segRows,
		words: words,
		meta:  make([]colMeta, series),
		data:  make([]uint64, series*words),
	}
	for i := range s.meta {
		s.meta[i] = colMeta{lo: 0, hi: words, off: i * words}
	}
	set := func(i, r int) {
		s.data[s.meta[i].off+r/wordBits] |= 1 << uint(r%wordBits)
		s.meta[i].pop++
	}
	// col 0: empty. col 1: one bit mid-segment. col 2: dense.
	// col 3: first row only. col 4: last row only.
	set(1, 100)
	for r := 0; r < segRows; r += 2 {
		set(2, r)
	}
	set(3, 0)
	set(4, segRows-1)

	buf := encodeSegment(s)
	got, err := parseSegment(buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.base != s.base || got.rows != s.rows || got.words != s.words {
		t.Fatalf("header (%d, %d, %d), want (%d, %d, %d)", got.base, got.rows, got.words, s.base, s.rows, s.words)
	}
	if m := got.meta[0]; m.lo != 0 || m.hi != 0 || m.pop != 0 {
		t.Fatalf("empty column kept span [%d, %d) pop %d", m.lo, m.hi, m.pop)
	}
	if m := got.meta[1]; m.hi-m.lo != 1 {
		t.Fatalf("single-bit column kept %d words, want 1", m.hi-m.lo)
	}
	for i := 0; i < series; i++ {
		for r := 0; r < segRows; r++ {
			if g, w := got.bit(i, r), s.bit(i, r); g != w {
				t.Fatalf("col %d row %d: %v, want %v", i, r, g, w)
			}
		}
		if g, w := got.seriesCount(i, 0, segRows), s.meta[i].pop; g != w {
			t.Fatalf("col %d count %d, want %d", i, g, w)
		}
	}
	// Masked subrange counts agree with a naive bit loop.
	for _, rg := range [][2]int{{0, 1}, {63, 65}, {100, 101}, {5, 187}, {64, 128}} {
		for i := 0; i < series; i++ {
			want := 0
			for r := rg[0]; r < rg[1]; r++ {
				if s.bit(i, r) {
					want++
				}
			}
			if g := got.seriesCount(i, rg[0], rg[1]); g != want {
				t.Fatalf("col %d range %v count %d, want %d", i, rg, g, want)
			}
		}
		for a := 0; a < series; a++ {
			for b := 0; b < series; b++ {
				want := 0
				for r := rg[0]; r < rg[1]; r++ {
					if s.bit(a, r) || s.bit(b, r) {
						want++
					}
				}
				if g := got.pairCount(a, b, rg[0], rg[1]); g != want {
					t.Fatalf("pair (%d,%d) range %v count %d, want %d", a, b, rg, g, want)
				}
			}
		}
	}
}
