package measure

import (
	"testing"
)

// TestSnapshotViewRecyclesPatternBoxes pins the theorem-estimator publish
// path: a view recycled from the previous generation carries exactly the
// source's live pattern counts (zero-count and pruned keys answer 0 either
// way), and once every pattern of the stream has been seen a steady-state
// append+publish allocates nothing — the histogram copy overwrites the
// recycled view's boxes instead of boxing every live pattern again — while
// the column copy takes the delta path.
func TestSnapshotViewRecyclesPatternBoxes(t *testing.T) {
	const numPaths, window, batch, distinct = 20, 256, 64, 37
	e, err := NewSlidingWindow(numPaths, window)
	if err != nil {
		t.Fatal(err)
	}
	e.PrimePatterns()
	words := make([]uint64, batch)
	next := 0
	appendBatch := func() {
		for r := range words {
			// distinct patterns, each a fixed pseudo-random path subset.
			words[r] = (uint64(next%distinct) * 0x9e3779b97f4a7c15 >> 44) & (1<<numPaths - 1)
			next++
		}
		e.AppendBatchWords(words, 1, batch)
	}
	check := func(v *Empirical) {
		t.Helper()
		for k, p := range e.patterns {
			if got := v.ProbCongestedPatternKey(k); got != e.ProbCongestedPatternKey(k) {
				t.Fatalf("pattern %q: view P = %v, source %v (count %d)", k, got, e.ProbCongestedPatternKey(k), *p)
			}
		}
		for k, q := range v.patterns {
			if p, ok := e.patterns[k]; *q != 0 && (!ok || *p != *q) {
				t.Fatalf("view holds count %d for pattern %q the source does not", *q, k)
			}
		}
	}

	var v *Empirical
	for i := 0; i < 3*window/batch; i++ {
		appendBatch()
		v = e.SnapshotView(v)
		check(v)
	}
	if words, full := v.CopyCost(); full || words > 2*numPaths {
		t.Fatalf("steady-state publish copied %d words (full %v), want a delta of at most %d", words, full, 2*numPaths)
	}
	step := func() {
		appendBatch()
		v = e.SnapshotView(v)
	}
	if got := testing.AllocsPerRun(20, step); got > 0 {
		t.Fatalf("steady-state append+publish with a live pattern histogram allocates %.2f objects, want 0", got)
	}
	check(v)
}
