package snapstore

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// randomPairStore builds a store (ring or fixed) with random observations.
func randomPairStore(rng *rand.Rand, series, snapshots int, ring bool) *Store {
	var s *Store
	if ring {
		s = NewRing(series, snapshots)
	} else {
		s = New(series)
	}
	row := bitset.New(series)
	for t := 0; t < snapshots; t++ {
		row.Clear()
		for i := 0; i < series; i++ {
			if rng.Intn(3) == 0 {
				row.Add(i)
			}
		}
		s.Append(row)
	}
	return s
}

// sparsePairStore builds a store where some columns are entirely untouched
// and others are congested only inside a narrow block range — the shapes
// that exercise the block-summary skip paths (both-zero, one-zero) rather
// than the fused sweep.
func sparsePairStore(rng *rand.Rand, series, snapshots int, ring bool) *Store {
	var s *Store
	if ring {
		s = NewRing(series, snapshots)
	} else {
		s = New(series)
	}
	// Series i is active only if i%3 != 2, and only inside a random
	// contiguous snapshot span, so most (series, block) cells are all-zero.
	type span struct{ lo, hi int }
	spans := make([]span, series)
	for i := range spans {
		lo := rng.Intn(snapshots)
		spans[i] = span{lo: lo, hi: lo + rng.Intn(snapshots-lo) + 1}
	}
	row := bitset.New(series)
	for t := 0; t < snapshots; t++ {
		row.Clear()
		for i := 0; i < series; i++ {
			if i%3 != 2 && t >= spans[i].lo && t < spans[i].hi && rng.Intn(4) == 0 {
				row.Add(i)
			}
		}
		s.Append(row)
	}
	return s
}

// TestCountPairsGoodMatchesPerPair pins the batched kernel
// (CountPairsCongestedWS/CountPairsGoodWS) against the per-pair oracle
// (CountAnyCongested/CountAllGood) on dense and sparse stores — the sparse
// ones drive the block-summary skip paths — including ring windows whose
// slots wrap and stores spanning several 512-word blocks. One workspace
// serves every shape, so reuse across store sizes is covered too. Counts
// are exact integers, so "bit-identical" is plain equality.
func TestCountPairsGoodMatchesPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct {
		series, snapshots int
		ring, sparse      bool
	}{
		{1, 1, false, false},
		{5, 63, false, false},
		{8, 64, false, false},
		{8, 64, false, true},
		{17, 1000, false, false},
		{9, pairBlockWords*64 + 129, false, false},  // spans multiple blocks
		{7, pairBlockWords*64 + 129, false, true},   // multi-block, mostly zero
		{6, 2*pairBlockWords*64 + 65, false, false}, // three blocks
		{13, 700, true, false},                      // ring window, rotated slots
		{11, 900, true, true},                       // sparse ring
		{5, pairBlockWords*64 + 300, true, false},   // multi-block ring
	}
	ws := &CountWorkspace{}
	for _, sh := range shapes {
		var s *Store
		if sh.sparse {
			s = sparsePairStore(rng, sh.series, sh.snapshots, sh.ring)
		} else {
			s = randomPairStore(rng, sh.series, sh.snapshots, sh.ring)
		}
		if sh.ring {
			// Slide the window past its capacity so the retained slots wrap.
			row := bitset.New(sh.series)
			for k := 0; k < sh.snapshots/3+1; k++ {
				row.Clear()
				row.Add(rng.Intn(sh.series))
				s.Append(row)
			}
		}
		var pairs []Pair
		for a := 0; a < sh.series; a++ {
			for b := 0; b < sh.series; b++ {
				if rng.Intn(2) == 0 {
					pairs = append(pairs, Pair{A: a, B: b})
				}
			}
		}
		congested := make([]int, len(pairs))
		s.CountPairsCongestedWS(ws, pairs, congested)
		good := make([]int, len(pairs))
		s.CountPairsGoodWS(ws, pairs, good)
		scratch := make([]uint64, s.Words())
		for i, p := range pairs {
			series := []int{p.A, p.B}
			if p.A == p.B {
				series = series[:1]
			}
			if want := s.CountAnyCongested(series, scratch); congested[i] != want {
				t.Fatalf("store %dx%d ring=%v sparse=%v pair %v: batched congested %d, per-pair %d",
					sh.series, sh.snapshots, sh.ring, sh.sparse, p, congested[i], want)
			}
			if want := s.CountAllGood(series, scratch); good[i] != want {
				t.Fatalf("store %dx%d ring=%v sparse=%v pair %v: batched good %d, per-pair %d",
					sh.series, sh.snapshots, sh.ring, sh.sparse, p, good[i], want)
			}
		}
	}
}

// TestCountPairsWSMatchesSerial pins the blocked kernel
// (CountPairsCongestedWS/CountPairsGoodWS) against a serial snapshot-by-
// snapshot reference built on Bit alone, so it shares no word arithmetic
// with the kernel under test. The shapes cover dense and sparse stores,
// ring windows whose slots wrap, and stores spanning several 512-word
// blocks.
func TestCountPairsWSMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		series, snapshots int
		ring, sparse      bool
	}{
		{1, 1, false, false},
		{5, 63, false, false},
		{8, 64, false, true},
		{17, 1000, false, false},
		{9, pairBlockWords*64 + 129, false, false}, // spans multiple blocks
		{7, pairBlockWords*64 + 129, false, true},  // multi-block, mostly zero
		{13, 700, true, false},                     // ring window, rotated slots
		{11, 900, true, true},
	}
	ws := &CountWorkspace{}
	for _, sh := range shapes {
		var s *Store
		if sh.sparse {
			s = sparsePairStore(rng, sh.series, sh.snapshots, sh.ring)
		} else {
			s = randomPairStore(rng, sh.series, sh.snapshots, sh.ring)
		}
		if sh.ring {
			// Slide the window past its capacity so the retained slots wrap.
			row := bitset.New(sh.series)
			for k := 0; k < sh.snapshots/4+1; k++ {
				row.Clear()
				row.Add(rng.Intn(sh.series))
				s.Append(row)
			}
		}
		var pairs []Pair
		for a := 0; a < sh.series; a++ {
			for b := 0; b < sh.series; b++ {
				if rng.Intn(2) == 0 {
					pairs = append(pairs, Pair{A: a, B: b})
				}
			}
		}
		congested := make([]int, len(pairs))
		s.CountPairsCongestedWS(ws, pairs, congested)
		good := make([]int, len(pairs))
		s.CountPairsGoodWS(ws, pairs, good)
		for i, p := range pairs {
			want := 0
			for tt := 0; tt < s.Snapshots(); tt++ {
				if s.Bit(p.A, tt) || s.Bit(p.B, tt) {
					want++
				}
			}
			if congested[i] != want {
				t.Fatalf("store %dx%d ring=%v sparse=%v pair %v: blocked congested %d, serial %d",
					sh.series, sh.snapshots, sh.ring, sh.sparse, p, congested[i], want)
			}
			if wantGood := s.Snapshots() - want; good[i] != wantGood {
				t.Fatalf("store %dx%d ring=%v sparse=%v pair %v: blocked good %d, serial %d",
					sh.series, sh.snapshots, sh.ring, sh.sparse, p, good[i], wantGood)
			}
		}
	}
}

// TestCountPairsWSWorkspaceReuse pins that one workspace survives reuse
// across stores of different shapes (growing and shrinking between calls)
// and counts the same as a fresh one.
func TestCountPairsWSWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := &CountWorkspace{}
	big := randomPairStore(rng, 6, pairBlockWords*64*2+65, false)
	small := randomPairStore(rng, 3, 100, false)
	pairsBig := []Pair{{0, 1}, {2, 5}, {4, 4}}
	pairsSmall := []Pair{{0, 2}, {1, 1}}

	check := func(s *Store, ws *CountWorkspace, pairs []Pair) {
		t.Helper()
		got := make([]int, len(pairs))
		s.CountPairsCongestedWS(ws, pairs, got)
		scratch := make([]uint64, s.Words())
		for i, p := range pairs {
			if want := s.CountAnyCongested([]int{p.A, p.B}, scratch); got[i] != want {
				t.Fatalf("pair %v: got %d, want %d", p, got[i], want)
			}
		}
	}

	check(big, ws, pairsBig)
	check(small, ws, pairsSmall) // shrink store between calls
	check(big, ws, pairsBig)     // and grow it back
	check(big, &CountWorkspace{}, pairsBig)
}

// TestCountPairsCongestedValidation pins the misuse panics of both kernel
// entry points, CountPairsCongestedWS and CountPairsGoodWS, each on a fresh
// workspace.
func TestCountPairsCongestedValidation(t *testing.T) {
	s := NewFixed(3, 10)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	kernels := []struct {
		name string
		fn   func(*CountWorkspace, []Pair, []int)
	}{
		{"CountPairsCongestedWS", s.CountPairsCongestedWS},
		{"CountPairsGoodWS", s.CountPairsGoodWS},
	}
	for _, k := range kernels {
		mustPanic(k.name+" short out", func() { k.fn(&CountWorkspace{}, make([]Pair, 2), make([]int, 1)) })
		mustPanic(k.name+" series out of range", func() { k.fn(&CountWorkspace{}, []Pair{{A: 0, B: 3}}, make([]int, 1)) })
		mustPanic(k.name+" negative series", func() { k.fn(&CountWorkspace{}, []Pair{{A: -1, B: 0}}, make([]int, 1)) })
	}
}

// TestCountPairsWSValidation pins the kernel's misuse panics and that a
// workspace stays reusable after one.
func TestCountPairsWSValidation(t *testing.T) {
	s := NewFixed(3, 10)
	ws := &CountWorkspace{}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("short out", func() { s.CountPairsCongestedWS(ws, make([]Pair, 2), make([]int, 1)) })
	mustPanic("series out of range", func() { s.CountPairsCongestedWS(ws, []Pair{{A: 0, B: 3}}, make([]int, 1)) })
	mustPanic("negative series", func() { s.CountPairsCongestedWS(ws, []Pair{{A: -1, B: 0}}, make([]int, 1)) })

	// A panic after some columns were registered must leave the registry
	// clean for reuse.
	mustPanic("late out of range", func() { s.CountPairsCongestedWS(ws, []Pair{{A: 0, B: 1}, {A: 2, B: 9}}, make([]int, 2)) })
	rng := rand.New(rand.NewSource(3))
	st := randomPairStore(rng, 4, 200, false)
	pairs := []Pair{{0, 1}, {2, 3}}
	got := make([]int, len(pairs))
	st.CountPairsCongestedWS(ws, pairs, got)
	scratch := make([]uint64, st.Words())
	for i, p := range pairs {
		if want := st.CountAnyCongested([]int{p.A, p.B}, scratch); got[i] != want {
			t.Fatalf("after panic: pair %v got %d, want %d", p, got[i], want)
		}
	}
}

// TestCountPairsWSSteadyStateAllocs extends the 0 allocs/op gate to the
// batched kernel: once the workspace is warm, a count must not allocate.
func TestCountPairsWSSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := randomPairStore(rng, 8, pairBlockWords*64+200, false)
	pairs := []Pair{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 6}}
	out := make([]int, len(pairs))
	ws := &CountWorkspace{}
	s.CountPairsCongestedWS(ws, pairs, out) // warm scratch
	if allocs := testing.AllocsPerRun(20, func() {
		s.CountPairsCongestedWS(ws, pairs, out)
	}); allocs != 0 {
		t.Fatalf("steady-state CountPairsCongestedWS: %.1f allocs/op, want 0", allocs)
	}
}
