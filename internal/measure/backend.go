package measure

import (
	"repro/internal/bitset"
	"repro/internal/snapstore"
)

// columnBackend is the storage-and-counting seam an Empirical estimator
// runs on: path-major bit columns with window semantics and the batched
// count kernels. Two implementations exist — ringColumns wraps the
// RAM-resident snapstore.Store (the default), and segstore.TieredStore
// spills sealed column segments to disk and counts across the tier
// boundary (NewSlidingWindowSpill). The estimator's probabilities are pure
// functions of the integer counts this interface returns, so any two
// backends holding the same retained rows produce bit-identical estimates.
type columnBackend interface {
	NumSeries() int
	Snapshots() int
	Capacity() int
	// AppendEvict ingests one snapshot, evicting the oldest retained one
	// first when the window is full; the evicted row is left in evicted
	// when non-nil. Passing evicted == nil lets a backend skip
	// materializing the row (the out-of-core backend pays O(series) for
	// it).
	AppendEvict(congested, evicted *bitset.Set) bool
	// AppendEvictWords is AppendEvict with the snapshot as packed words
	// (bit i of word w ⇒ series w*64+i congested) — the wire-ingest path
	// that appends straight from a decoded wire row without materializing
	// a bitset per snapshot. Bit-identical to AppendEvict.
	AppendEvictWords(rowWords []uint64, evicted *bitset.Set) bool
	EvictOldest(evicted *bitset.Set) bool
	DropOldest(k int) int
	RowInto(t int, dst *bitset.Set)
	CongestedCount(i int) int
	// CountAllGood counts the retained snapshots in which none of the
	// given series was congested; any scratch it needs is its own.
	CountAllGood(series []int) int
	CountPairGood(i, j int) int
	CountPairsGood(pairs []Pair, out []int)
	Close()
}

// ringColumns adapts snapstore.Store to the backend seam, owning the
// OR-reduction scratch and the count workspace the store's kernels take as
// arguments.
type ringColumns struct {
	store   *snapstore.Store
	scratch []uint64
	ws      snapstore.CountWorkspace
}

func newRingColumns(store *snapstore.Store) *ringColumns { return &ringColumns{store: store} }

func (rc *ringColumns) NumSeries() int { return rc.store.NumSeries() }
func (rc *ringColumns) Snapshots() int { return rc.store.Snapshots() }
func (rc *ringColumns) Capacity() int  { return rc.store.Capacity() }

func (rc *ringColumns) AppendEvict(congested, evicted *bitset.Set) bool {
	return rc.store.AppendEvict(congested, evicted)
}
func (rc *ringColumns) AppendEvictWords(rowWords []uint64, evicted *bitset.Set) bool {
	return rc.store.AppendEvictWords(rowWords, evicted)
}
func (rc *ringColumns) EvictOldest(evicted *bitset.Set) bool { return rc.store.EvictOldest(evicted) }
func (rc *ringColumns) DropOldest(k int) int                 { return rc.store.DropOldest(k) }
func (rc *ringColumns) RowInto(t int, dst *bitset.Set)       { rc.store.RowInto(t, dst) }
func (rc *ringColumns) CongestedCount(i int) int             { return rc.store.CongestedCount(i) }

func (rc *ringColumns) CountAllGood(series []int) int {
	if w := rc.store.Words(); cap(rc.scratch) < w {
		rc.scratch = make([]uint64, w)
	}
	return rc.store.CountAllGood(series, rc.scratch)
}

// CountPairGood is the two-column fused OR+POPCNT — the per-pair miss path
// behind the pair cache.
func (rc *ringColumns) CountPairGood(i, j int) int {
	return rc.store.Snapshots() - bitset.OrPopCountWords(rc.store.Column(i), rc.store.Column(j))
}

func (rc *ringColumns) CountPairsGood(pairs []Pair, out []int) {
	rc.store.CountPairsGoodWS(&rc.ws, pairs, out)
}

// Close is a no-op: a RAM backend holds nothing but memory.
func (rc *ringColumns) Close() {}
