package snapstore

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// sameWords reports whether two stores hold identical columns word for
// word and identical (n, capacity, retained) — stricter than Equal, which
// compares ring windows logically.
func sameWords(a, b *Store) bool {
	if a.n != b.n || a.capacity != b.capacity || a.retained != b.retained || len(a.cols) != len(b.cols) {
		return false
	}
	for i := range a.cols {
		if len(a.cols[i]) != len(b.cols[i]) {
			return false
		}
		for w := range a.cols[i] {
			if a.cols[i][w] != b.cols[i][w] {
				return false
			}
		}
	}
	return true
}

// TestSnapshotIntoDeltaMatchesFullCopy is the delta clone's property test:
// over random AppendEvict / AppendEvictWords / EvictOldest / DropOldest
// sequences that wrap the ring many times, a clone recycled through
// SnapshotInto — from the previous generation or an older one, after a
// detour through a different source, after being written itself, or behind
// by at least the capacity — equals a fresh full copy word for word, and
// CopyCost says which path it took.
func TestSnapshotIntoDeltaMatchesFullCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		series := 1 + rng.Intn(130)
		capacity := 1 + rng.Intn(300)
		src := NewRing(series, capacity)
		other := NewRing(series, capacity)
		wordsPerRow := (series + wordBits - 1) / wordBits
		row := bitset.New(series)
		rowWords := make([]uint64, wordsPerRow)
		appendOne := func(s *Store) {
			for i := range rowWords {
				rowWords[i] = rng.Uint64() & rng.Uint64() // ~1/4 of paths congested
			}
			if tail := series % wordBits; tail != 0 {
				rowWords[wordsPerRow-1] &= 1<<uint(tail) - 1
			}
			if rng.Intn(2) == 0 {
				s.AppendEvictWords(rowWords, nil)
				return
			}
			row.Clear()
			for i := 0; i < series; i++ {
				if rowWords[i/wordBits]&(1<<uint(i%wordBits)) != 0 {
					row.Add(i)
				}
			}
			s.AppendEvict(row, nil)
		}
		// Recycled clones of different generations; each publish recycles
		// a random one, so deltas span one step or many.
		clones := make([]*Store, 1+rng.Intn(3))
		fullWords := src.Words() * series
		for step := 0; step < 100; step++ {
			switch op := rng.Intn(12); {
			case op < 6:
				for k := rng.Intn(wordBits); k >= 0; k-- {
					appendOne(src)
				}
			case op < 7:
				src.EvictOldest(nil)
			case op < 8:
				src.DropOldest(rng.Intn(capacity + 2))
			case op < 9:
				// A burst of at least the capacity touches every slot.
				for k := capacity + rng.Intn(capacity+1); k > 0; k-- {
					appendOne(src)
				}
			default:
				appendOne(other)
			}

			c := rng.Intn(len(clones))
			prev := clones[c]
			wantFull := prev == nil || prev.cloneOf != src.id
			if prev != nil && !wantFull {
				appended := src.n - prev.cloneN
				evicted := (src.n - src.retained) - (prev.cloneN - prev.cloneRetained)
				wantFull = appended >= capacity || evicted >= capacity
			}
			switch {
			case prev != nil && rng.Intn(8) == 0:
				// Detour through a different source: the next clone from
				// src must not trust the stale bookkeeping.
				prev = other.SnapshotInto(prev)
				if !sameWords(prev, other.SnapshotInto(nil)) {
					t.Fatalf("trial %d step %d: clone of the other source differs from its full copy", trial, step)
				}
				wantFull = true
			case prev != nil && rng.Intn(8) == 0:
				// A clone written since its copy is no longer a snapshot
				// of src's history.
				appendOne(prev)
				wantFull = true
			}
			got := src.SnapshotInto(prev)
			clones[c] = got
			if !sameWords(got, src.SnapshotInto(nil)) {
				t.Fatalf("trial %d step %d (series %d, capacity %d): recycled clone differs from a full copy",
					trial, step, series, capacity)
			}
			words, full := got.CopyCost()
			if full != wantFull {
				t.Fatalf("trial %d step %d: CopyCost full = %v, want %v", trial, step, full, wantFull)
			}
			if full && words != fullWords {
				t.Fatalf("trial %d step %d: full copy reports %d words, want %d", trial, step, words, fullWords)
			}
			if !full && words > fullWords {
				t.Fatalf("trial %d step %d: delta copied %d words, more than a full copy (%d)", trial, step, words, fullWords)
			}
		}
	}
}

// TestSnapshotIntoDeltaCopiesOnlyTheBatch pins the cost side: on a full
// window, recycling the previous generation's clone after one 64-row batch
// copies the words of that batch only — one word per column when the batch
// is word-aligned, at most two otherwise — and a clone that fell a whole
// window behind pays the full copy.
func TestSnapshotIntoDeltaCopiesOnlyTheBatch(t *testing.T) {
	const series, capacity, batch = 37, 65536, 64
	src := NewRing(series, capacity)
	row := make([]uint64, 1)
	for i := 0; i < capacity+batch/2; i++ {
		row[0] = uint64(i) * 0x9e3779b97f4a7c15 >> 27
		src.AppendEvictWords(row, nil)
	}
	clone := src.SnapshotInto(nil)
	if _, full := clone.CopyCost(); !full {
		t.Fatal("a fresh clone must take the full copy")
	}
	stale := src.SnapshotInto(nil)
	for gen := 0; gen < 8; gen++ {
		for i := 0; i < batch; i++ {
			row[0] = uint64(gen*batch+i) * 0xbf58476d1ce4e5b9 >> 27
			src.AppendEvictWords(row, nil)
		}
		clone = src.SnapshotInto(clone)
		words, full := clone.CopyCost()
		if full || words > 2*series {
			t.Fatalf("gen %d: copied %d words (full %v), want at most %d", gen, words, full, 2*series)
		}
		if !sameWords(clone, src.SnapshotInto(nil)) {
			t.Fatalf("gen %d: delta clone differs from a full copy", gen)
		}
	}
	// The stale clone is 8 batches behind: still a delta.
	stale = src.SnapshotInto(stale)
	if words, full := stale.CopyCost(); full || words > (8+1)*series {
		t.Fatalf("8-batch-old clone copied %d words (full %v), want a delta of at most %d", words, full, 9*series)
	}
	for i := 0; i < capacity; i++ {
		src.AppendEvictWords(row, nil)
	}
	if stale = src.SnapshotInto(stale); !sameWords(stale, src.SnapshotInto(nil)) {
		t.Fatal("window-behind clone differs from a full copy")
	}
	if words, full := stale.CopyCost(); !full || words != series*capacity/wordBits {
		t.Fatalf("a clone a whole window behind copied %d words (full %v), want the full %d", words, full, series*capacity/wordBits)
	}
}
