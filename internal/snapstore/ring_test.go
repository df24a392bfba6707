package snapstore

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// TestRingMatchesFreshStore is the ring store's core guarantee: after any
// append sequence, a ring window answers every query exactly like a fresh
// store built from only the retained rows.
func TestRingMatchesFreshStore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		series := 1 + rng.Intn(70)
		capacity := 1 + rng.Intn(150) // straddles word boundaries across trials
		n := rng.Intn(400)
		rows := randomRows(rng, series, n)

		ring := NewRing(series, capacity)
		for _, r := range rows {
			ring.Append(r)
		}
		lo := n - capacity
		if lo < 0 {
			lo = 0
		}
		fresh := FromRows(series, rows[lo:])

		if ring.Snapshots() != fresh.Snapshots() {
			t.Fatalf("trial %d: ring retains %d snapshots, fresh store %d",
				trial, ring.Snapshots(), fresh.Snapshots())
		}
		if ring.Appended() != n {
			t.Fatalf("trial %d: Appended() = %d, want %d", trial, ring.Appended(), n)
		}
		for i := 0; i < series; i++ {
			if ring.CongestedCount(i) != fresh.CongestedCount(i) {
				t.Fatalf("trial %d: series %d count %d, fresh %d",
					trial, i, ring.CongestedCount(i), fresh.CongestedCount(i))
			}
		}
		// Multi-series OR+popcount kernels agree on random query sets.
		for q := 0; q < 10; q++ {
			var idx []int
			for i := 0; i < series; i++ {
				if rng.Intn(4) == 0 {
					idx = append(idx, i)
				}
			}
			if got, want := ring.CountAnyCongested(idx, nil), fresh.CountAnyCongested(idx, nil); got != want {
				t.Fatalf("trial %d: CountAnyCongested(%v) = %d, want %d", trial, idx, got, want)
			}
		}
		// Window-relative rows come back oldest-first in arrival order.
		for w := 0; w < ring.Snapshots(); w++ {
			if got, want := ring.Row(w), rows[lo+w]; !got.Equal(want) {
				t.Fatalf("trial %d: window row %d = %v, want %v", trial, w, got, want)
			}
		}
	}
}

// TestRingAppendEvict pins the eviction protocol: the evicted row is exactly
// the snapshot that fell out of the window.
func TestRingAppendEvict(t *testing.T) {
	const series, capacity = 10, 4
	rng := rand.New(rand.NewSource(4))
	rows := randomRows(rng, series, 12)
	ring := NewRing(series, capacity)
	evicted := bitset.New(series)
	for i, r := range rows {
		did := ring.AppendEvict(r, evicted)
		if want := i >= capacity; did != want {
			t.Fatalf("append %d: eviction %v, want %v", i, did, want)
		}
		if did && !evicted.Equal(rows[i-capacity]) {
			t.Fatalf("append %d: evicted %v, want %v", i, evicted, rows[i-capacity])
		}
		if !did && !evicted.IsEmpty() {
			t.Fatalf("append %d: evicted set %v not cleared on no-evict", i, evicted)
		}
	}
}

// TestRingEvictOldest exercises the explicit-expiry path, including interleaved
// appends and draining to empty.
func TestRingEvictOldest(t *testing.T) {
	const series, capacity = 8, 3
	rng := rand.New(rand.NewSource(5))
	rows := randomRows(rng, series, 6)
	ring := NewRing(series, capacity)
	evicted := bitset.New(series)

	ring.Append(rows[0])
	ring.Append(rows[1])
	if !ring.EvictOldest(evicted) || !evicted.Equal(rows[0]) {
		t.Fatalf("evict after 2 appends: got %v, want %v", evicted, rows[0])
	}
	if ring.Snapshots() != 1 {
		t.Fatalf("retained %d, want 1", ring.Snapshots())
	}
	// Refill past capacity: the window is rows[3..5].
	for _, r := range rows[2:] {
		ring.Append(r)
	}
	for i := 3; i < 6; i++ {
		if !ring.EvictOldest(evicted) || !evicted.Equal(rows[i]) {
			t.Fatalf("drain: got %v, want row %d %v", evicted, i, rows[i])
		}
	}
	if ring.EvictOldest(evicted) {
		t.Fatal("eviction from an empty window reported true")
	}
	if ring.Snapshots() != 0 {
		t.Fatalf("retained %d after drain, want 0", ring.Snapshots())
	}
	for i := 0; i < series; i++ {
		if ring.CongestedCount(i) != 0 {
			t.Fatalf("series %d retains %d bits after drain", i, ring.CongestedCount(i))
		}
	}
}

// TestRingRowsAndEqual pins the row-major compatibility views on a rotated
// window: Rows() must return exactly the retained rows (oldest first, no
// wrap-around aliasing) and Equal must compare a rotated ring to a fresh
// store logically.
func TestRingRowsAndEqual(t *testing.T) {
	const series, capacity, n = 6, 8, 10
	rng := rand.New(rand.NewSource(6))
	rows := randomRows(rng, series, n)
	ring := NewRing(series, capacity)
	for _, r := range rows {
		ring.Append(r)
	}
	got := ring.Rows()
	if len(got) != capacity {
		t.Fatalf("Rows() returned %d rows, want %d retained", len(got), capacity)
	}
	for w, r := range got {
		if !r.Equal(rows[n-capacity+w]) {
			t.Fatalf("Rows()[%d] = %v, want %v", w, r, rows[n-capacity+w])
		}
	}
	fresh := FromRows(series, rows[n-capacity:])
	if !ring.Equal(fresh) || !fresh.Equal(ring) {
		t.Fatal("rotated ring does not Equal a fresh store over the same rows")
	}
	other := FromRows(series, rows[:capacity])
	if ring.Equal(other) {
		t.Fatal("ring Equal a store over different rows")
	}
}

func TestRingPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("NewRing capacity 0", func() { NewRing(3, 0) })
	assertPanics("SetBit on ring", func() { NewRing(3, 8).SetBit(0, 0) })
	assertPanics("EvictOldest on unbounded store", func() { New(3).EvictOldest(nil) })
	assertPanics("AppendEvict out-of-range series", func() {
		NewRing(2, 8).AppendEvict(bitset.FromIndices(5), nil)
	})
}

// TestDropOldestMatchesEvictLoop pins the batched ring eviction against a
// per-snapshot EvictOldest loop on a shadow store, across drop sizes that
// hit every mask shape: within one word, word-aligned, spanning words, and
// wrapping the ring boundary.
func TestDropOldestMatchesEvictLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, capacity := range []int{1, 63, 64, 65, 200, 700} {
		a := NewRing(5, capacity)
		b := NewRing(5, capacity)
		row := bitset.New(5)
		appendRandom := func(n int) {
			for i := 0; i < n; i++ {
				row.Clear()
				for j := 0; j < 5; j++ {
					if rng.Intn(3) == 0 {
						row.Add(j)
					}
				}
				a.Append(row)
				b.Append(row)
			}
		}
		// Rotate the window first so slot(0) is mid-ring, then exercise a
		// range of drop sizes including overshoot (k > retained).
		appendRandom(capacity + capacity/3 + 1)
		for _, k := range []int{0, 1, 7, 63, 64, 65, capacity / 2, capacity, capacity + 9} {
			appendRandom(rng.Intn(capacity/2 + 1))
			wantDropped := 0
			for i := 0; i < k && b.Snapshots() > 0; i++ {
				b.EvictOldest(nil)
				wantDropped++
			}
			if got := a.DropOldest(k); got != wantDropped {
				t.Fatalf("cap=%d k=%d: DropOldest returned %d, evict loop dropped %d", capacity, k, got, wantDropped)
			}
			if !a.Equal(b) {
				t.Fatalf("cap=%d k=%d: stores diverged after batched drop", capacity, k)
			}
			if a.Snapshots() != b.Snapshots() {
				t.Fatalf("cap=%d k=%d: retained %d vs %d", capacity, k, a.Snapshots(), b.Snapshots())
			}
		}
	}
}

// TestDropOldestUnboundedPanics pins the misuse panic.
func TestDropOldestUnboundedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DropOldest on an unbounded store did not panic")
		}
	}()
	New(3).DropOldest(1)
}
