package snapstore

import (
	"fmt"

	"repro/internal/bitset"
)

// Pair identifies one unordered pair of series for the batched count
// kernel.
type Pair struct {
	A, B int
}

// pairBlockWords is the cache-block size of CountPairsCongestedWS: the
// blocked sweep touches at most series·pairBlockWords·8 bytes of column data
// per block, so with a few hundred series the working set of one block stays
// inside L2 and every column word is streamed from memory once per call
// instead of once per pair that uses it.
const pairBlockWords = 512

// CountWorkspace holds the reusable scratch of the batched pair-count
// kernel CountPairsCongestedWS/CountPairsGoodWS: the referenced-column
// registry and the current block's column summaries. A workspace may be
// reused across calls and across stores, but — like the evaluate
// workspaces — it must not be shared between goroutines. The zero value is
// ready to use.
type CountWorkspace struct {
	pos  []int32 // series → 1+index into cols; 0 = unreferenced (cleared after every call)
	cols []int   // series referenced by the current call, in first-use order
	pops []int32 // current block's popcount of each referenced column: pops[ci] for cols[ci]
}

// CountPairsCongestedWS fills out[i] with the number of snapshots in which
// at least one series of pairs[i] was congested — the batched form of
// per-pair CountAnyCongested. One cache-blocked pass over the columns serves
// every pair: within a 512-word block each column's words are hot in cache
// no matter how many pairs share them.
//
// For each block the sweep first records every referenced column's
// popcount (the block summary), then serves each pair from the summaries
// when it can: a block where both columns are untouched contributes
// nothing, a block where one column is untouched contributes the other's
// popcount, and only blocks where both columns have bits set pay the fused
// OR+POPCNT word sweep. Mostly-good columns — the dominant regime in the
// paper's workloads — skip almost every word.
//
// ws must be non-nil and owned by the calling goroutine.
// len(out) must be at least len(pairs); it panics on an out-of-range series
// like the other accessors.
func (s *Store) CountPairsCongestedWS(ws *CountWorkspace, pairs []Pair, out []int) {
	if len(out) < len(pairs) {
		panic(fmt.Sprintf("snapstore: CountPairsCongestedWS out has %d slots for %d pairs", len(out), len(pairs)))
	}
	out = out[:len(pairs)]
	for i := range out {
		out[i] = 0
	}

	// Register the referenced columns: pos maps series → 1+index into cols
	// so block summaries are stored densely per referenced column rather
	// than per series.
	if cap(ws.pos) < len(s.cols) {
		ws.pos = make([]int32, len(s.cols))
	}
	ws.pos = ws.pos[:len(s.cols)]
	ws.cols = ws.cols[:0]
	for _, p := range pairs {
		if p.A < 0 || p.A >= len(s.cols) || p.B < 0 || p.B >= len(s.cols) {
			for _, c := range ws.cols {
				ws.pos[c] = 0 // keep the workspace reusable past the panic
			}
			panic(fmt.Sprintf("snapstore: pair (%d,%d) out of range (%d series)", p.A, p.B, len(s.cols)))
		}
		if ws.pos[p.A] == 0 {
			ws.cols = append(ws.cols, p.A)
			ws.pos[p.A] = int32(len(ws.cols))
		}
		if ws.pos[p.B] == 0 {
			ws.cols = append(ws.cols, p.B)
			ws.pos[p.B] = int32(len(ws.cols))
		}
	}
	if cap(ws.pops) < len(ws.cols) {
		ws.pops = make([]int32, len(ws.cols))
	}
	pops := ws.pops[:len(ws.cols)]

	words := s.Words()
	for lo := 0; lo < words; lo += pairBlockWords {
		hi := lo + pairBlockWords
		if hi > words {
			hi = words
		}
		for ci, c := range ws.cols {
			pops[ci] = int32(bitset.PopCountWords(s.cols[c][lo:hi]))
		}
		for i, p := range pairs {
			pa := pops[ws.pos[p.A]-1]
			pb := pops[ws.pos[p.B]-1]
			switch {
			case pa == 0 && pb == 0:
				// Both columns untouched in this block: skip.
			case pa == 0:
				out[i] += int(pb)
			case pb == 0:
				out[i] += int(pa)
			default:
				out[i] += bitset.OrPopCountWords(s.cols[p.A][lo:hi], s.cols[p.B][lo:hi])
			}
		}
	}

	// Unregister the referenced columns so the next call starts clean.
	for _, c := range ws.cols {
		ws.pos[c] = 0
	}
}

// CountPairsGoodWS fills out[i] with the number of snapshots in which
// neither series of pairs[i] was congested, via CountPairsCongestedWS.
func (s *Store) CountPairsGoodWS(ws *CountWorkspace, pairs []Pair, out []int) {
	s.CountPairsCongestedWS(ws, pairs, out)
	n := s.Snapshots()
	for i := range pairs {
		out[i] = n - out[i]
	}
}
