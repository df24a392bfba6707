// Package snapstore is the columnar measurement store: per-snapshot Boolean
// observations ("was path/link i congested in snapshot t?") stored
// path-major as one packed uint64 bit column per series.
//
// The tomography algorithms overwhelmingly ask one question of a
// measurement record: in how many snapshots was at least one path of a
// small set congested? Row-major storage (one bitset per snapshot) answers
// it by scanning all N snapshots per query. Column-major storage answers it
// word-parallel: OR the selected columns together and popcount, which is
// O(N/64 · |paths|) with sequential memory access — the layout BuildEquations'
// hundreds of thousands of single/pair queries want.
//
// A Store is built in one of three ways:
//
//   - NewFixed preallocates all columns for a known snapshot count so the
//     simulator's workers can fill disjoint 64-snapshot-aligned blocks
//     concurrently with SetBit: block b owns word b of every column, so
//     shards never share a word and the merged result is deterministic (the
//     "merge" is the layout itself).
//   - New + Append ingests snapshots one at a time — the streaming path.
//     Appending grows every column in lockstep, so a reader that arrives
//     between Appends always sees a consistent prefix.
//   - FromRows converts a legacy row-major record ([]*bitset.Set, one per
//     snapshot) — the compatibility constructor.
//   - NewRing is the sliding-window variant of the streaming path: the store
//     keeps a fixed capacity of slots and AppendEvict recycles the oldest
//     snapshot's slot once the window is full. Because every count kernel is
//     a permutation-blind popcount, a ring window answers exactly the same
//     queries as a fresh store over the same retained rows.
package snapstore

import (
	"fmt"
	mathbits "math/bits"
	"sync/atomic"

	"repro/internal/bitset"
)

const wordBits = 64

// BlockSnapshots is the snapshot-block granularity for concurrent fixed
// fills: writers that each own a disjoint range of whole 64-snapshot blocks
// touch disjoint words of every column, so no synchronization or merge step
// is needed and the result is independent of the writer count.
const BlockSnapshots = wordBits

// Store holds one bit column per series (path or link) over snapshots.
// Queries are safe for concurrent use once filling is complete; Append and
// SetBit are writer-side operations with the ownership rules documented on
// each.
//
// A ring store (NewRing) additionally bounds how many snapshots are
// retained: appended and retained counts diverge once the window is full,
// and row indices address window slots rather than absolute time (slot order
// is a rotation of arrival order; every count kernel is order-blind, so
// queries are unaffected).
type Store struct {
	n    int        // snapshots stored (ring mode: appended over the lifetime)
	cols [][]uint64 // cols[series][t/64] bit t%64

	// Ring-window state (NewRing). capacity == 0 means an unbounded store.
	capacity int // max snapshots retained; columns hold ⌈capacity/64⌉ words
	retained int // snapshots currently in the window

	// id names the store as a SnapshotInto source. The clone fields are set
	// on a SnapshotInto destination: the source's id and its (n, retained)
	// at copy time, from which the next SnapshotInto from that source works
	// out which slots changed since; copied/copiedFull record what that
	// SnapshotInto cost.
	id                    uint64
	cloneOf               uint64
	cloneN, cloneRetained int
	copied                int
	copiedFull            bool
}

// storeIDs hands out Store ids; 0 is never issued, so a store that was
// never a SnapshotInto destination matches no source.
var storeIDs atomic.Uint64

// New returns an empty streaming store with the given number of series.
func New(series int) *Store {
	if series < 0 {
		series = 0
	}
	return &Store{cols: make([][]uint64, series), id: storeIDs.Add(1)}
}

// NewFixed returns a store preallocated for exactly the given snapshot
// count, for concurrent filling with SetBit.
func NewFixed(series, snapshots int) *Store {
	s := New(series)
	if snapshots < 0 {
		snapshots = 0
	}
	s.n = snapshots
	words := (snapshots + wordBits - 1) / wordBits
	if words > 0 {
		// One backing array for all columns: predictable layout, one
		// allocation, and the whole store is contiguous for the OR kernels.
		backing := make([]uint64, words*series)
		for i := range s.cols {
			s.cols[i] = backing[i*words : (i+1)*words : (i+1)*words]
		}
	}
	return s
}

// NewRing returns an empty sliding-window store: it accepts snapshots
// through Append/AppendEvict like a streaming store but retains only the
// most recent capacity of them, recycling the oldest snapshot's slot once
// the window is full. Rows are addressed window-relative: Row(0) is the
// oldest retained snapshot, Row(Snapshots()-1) the newest.
func NewRing(series, capacity int) *Store {
	if capacity < 1 {
		panic(fmt.Sprintf("snapstore: ring capacity %d, want ≥ 1", capacity))
	}
	s := New(series)
	s.capacity = capacity
	words := (capacity + wordBits - 1) / wordBits
	backing := make([]uint64, words*series)
	for i := range s.cols {
		s.cols[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return s
}

// FromRows builds a store from a row-major record: rows[t] is the set of
// congested series in snapshot t. This is the compatibility constructor for
// code that still assembles []*bitset.Set snapshots.
func FromRows(series int, rows []*bitset.Set) *Store {
	s := NewFixed(series, len(rows))
	for t, row := range rows {
		row.ForEach(func(i int) bool {
			if i >= series {
				panic(fmt.Sprintf("snapstore: series %d out of range (%d series)", i, series))
			}
			s.SetBit(i, t)
			return true
		})
	}
	return s
}

// NumSeries returns the number of series (paths or links).
func (s *Store) NumSeries() int { return len(s.cols) }

// Snapshots returns the number of snapshots the store currently holds. For a
// ring store this is the window occupancy, not the lifetime append count
// (see Appended).
func (s *Store) Snapshots() int {
	if s.capacity > 0 {
		return s.retained
	}
	return s.n
}

// Appended returns the number of snapshots ever appended. It exceeds
// Snapshots once a ring window has started evicting.
func (s *Store) Appended() int { return s.n }

// Capacity returns the ring window capacity, or 0 for an unbounded store.
func (s *Store) Capacity() int { return s.capacity }

// Words returns the number of words in every column.
func (s *Store) Words() int {
	if s.capacity > 0 {
		return (s.capacity + wordBits - 1) / wordBits
	}
	return (s.n + wordBits - 1) / wordBits
}

// slot maps a window-relative snapshot index to its physical bit position.
// Retained snapshots occupy the contiguous (mod capacity) slot range
// [n−retained, n), so the oldest retained snapshot lives at slot
// (n−retained) mod capacity.
func (s *Store) slot(t int) int {
	if s.capacity == 0 {
		return t
	}
	return (s.n - s.retained + t) % s.capacity
}

// SetBit marks series i congested in snapshot t of a fixed store. Concurrent
// callers must own disjoint 64-snapshot-aligned blocks of t (see
// BlockSnapshots); SetBit panics if t is outside the preallocated range.
func (s *Store) SetBit(i, t int) {
	if s.capacity > 0 {
		panic("snapstore: SetBit on a ring store (use Append/AppendEvict)")
	}
	if t < 0 || t >= s.n {
		panic(fmt.Sprintf("snapstore: snapshot %d outside fixed range [0,%d)", t, s.n))
	}
	s.cols[i][t/wordBits] |= 1 << uint(t%wordBits)
}

// Bit reports whether series i was congested in snapshot t (window-relative
// for a ring store: t = 0 is the oldest retained snapshot).
func (s *Store) Bit(i, t int) bool {
	if t < 0 || t >= s.Snapshots() {
		return false
	}
	col := s.cols[i]
	p := s.slot(t)
	w := p / wordBits
	return w < len(col) && col[w]&(1<<uint(p%wordBits)) != 0
}

// Append ingests one snapshot: congested holds the congested series. It
// returns the new snapshot's lifetime index. On a full ring store the oldest
// snapshot is evicted silently; use AppendEvict to observe it. Append must
// not run concurrently with other writers or readers.
func (s *Store) Append(congested *bitset.Set) int {
	if s.capacity > 0 {
		t := s.n
		s.AppendEvict(congested, nil)
		return t
	}
	t := s.n
	s.n++
	if w := s.Words(); w > 0 && (len(s.cols) == 0 || len(s.cols[0]) < w) {
		for i := range s.cols {
			s.cols[i] = append(s.cols[i], 0)
		}
	}
	congested.ForEach(func(i int) bool {
		if i >= len(s.cols) {
			panic(fmt.Sprintf("snapstore: series %d out of range (%d series)", i, len(s.cols)))
		}
		s.cols[i][t/wordBits] |= 1 << uint(t%wordBits)
		return true
	})
	return t
}

// AppendEvict ingests one snapshot into a ring store, evicting the oldest
// retained snapshot first when the window is full. It reports whether an
// eviction happened and, when evicted is non-nil, leaves the evicted
// snapshot's congested series in it (cleared otherwise). On an unbounded
// store it behaves like Append and never evicts.
func (s *Store) AppendEvict(congested, evicted *bitset.Set) bool {
	if s.capacity == 0 {
		if evicted != nil {
			evicted.Clear()
		}
		s.Append(congested)
		return false
	}
	didEvict := false
	if s.retained == s.capacity {
		didEvict = s.EvictOldest(evicted)
	} else if evicted != nil {
		evicted.Clear()
	}
	p := s.n % s.capacity
	w, mask := p/wordBits, uint64(1)<<uint(p%wordBits)
	congested.ForEach(func(i int) bool {
		if i >= len(s.cols) {
			panic(fmt.Sprintf("snapstore: series %d out of range (%d series)", i, len(s.cols)))
		}
		s.cols[i][w] |= mask
		return true
	})
	s.n++
	s.retained++
	return didEvict
}

// AppendEvictWords is AppendEvict with the snapshot presented as packed
// words (bit i of word w ⇒ series w*64+i congested) instead of a bitset —
// the wire-ingest fast path: set bits are scattered straight from the wire
// row into the column words, with no per-snapshot set materialized.
// Results are bit-identical to AppendEvict over an equal set. rowWords may
// carry fewer than ⌈NumSeries/64⌉ words (missing words mean all-good);
// a bit at or past NumSeries panics like AppendEvict's out-of-range series.
func (s *Store) AppendEvictWords(rowWords []uint64, evicted *bitset.Set) bool {
	if s.capacity == 0 {
		if evicted != nil {
			evicted.Clear()
		}
		t := s.n
		s.n++
		if w := s.Words(); w > 0 && (len(s.cols) == 0 || len(s.cols[0]) < w) {
			for i := range s.cols {
				s.cols[i] = append(s.cols[i], 0)
			}
		}
		s.scatterRow(rowWords, t/wordBits, uint64(1)<<uint(t%wordBits))
		return false
	}
	didEvict := false
	if s.retained == s.capacity {
		didEvict = s.EvictOldest(evicted)
	} else if evicted != nil {
		evicted.Clear()
	}
	p := s.n % s.capacity
	s.scatterRow(rowWords, p/wordBits, uint64(1)<<uint(p%wordBits))
	s.n++
	s.retained++
	return didEvict
}

// scatterRow ORs mask into column word w of every series set in rowWords.
func (s *Store) scatterRow(rowWords []uint64, w int, mask uint64) {
	for wi, wv := range rowWords {
		for wv != 0 {
			b := mathbits.TrailingZeros64(wv)
			wv &= wv - 1
			i := wi*wordBits + b
			if i >= len(s.cols) {
				panic(fmt.Sprintf("snapstore: series %d out of range (%d series)", i, len(s.cols)))
			}
			s.cols[i][w] |= mask
		}
	}
}

// EvictOldest drops the oldest retained snapshot of a ring store, shrinking
// the window by one — the expiry path for time-based windows. It reports
// whether a snapshot was evicted and, when evicted is non-nil, leaves the
// dropped snapshot's congested series in it. It panics on an unbounded
// store (their snapshots are never recycled).
func (s *Store) EvictOldest(evicted *bitset.Set) bool {
	if s.capacity == 0 {
		panic("snapstore: EvictOldest on an unbounded store (NewRing creates ring stores)")
	}
	if evicted != nil {
		evicted.Clear()
	}
	if s.retained == 0 {
		return false
	}
	p := s.slot(0)
	w, mask := p/wordBits, uint64(1)<<uint(p%wordBits)
	for i := range s.cols {
		if s.cols[i][w]&mask != 0 {
			if evicted != nil {
				evicted.Add(i)
			}
			s.cols[i][w] &^= mask
		}
	}
	s.retained--
	return true
}

// DropOldest drops the k oldest retained snapshots of a ring store in one
// blocked pass and returns how many were dropped (min(k, retained)). Where a
// loop over EvictOldest clears one bit of every column per snapshot,
// DropOldest resolves the evicted slot range to word masks once and touches
// each affected column word exactly once — the batch-eviction primitive for
// sliding windows that ingest whole probe batches. The dropped rows are not
// reported; callers maintaining per-row state (e.g. a pattern histogram)
// must read them with RowInto before dropping. It panics on an unbounded
// store, like EvictOldest.
func (s *Store) DropOldest(k int) int {
	if s.capacity == 0 {
		panic("snapstore: DropOldest on an unbounded store (NewRing creates ring stores)")
	}
	if k > s.retained {
		k = s.retained
	}
	if k <= 0 {
		return 0
	}
	// The k oldest retained snapshots occupy the contiguous (mod capacity)
	// slot range [slot(0), slot(0)+k); the wrap splits it into at most two
	// linear spans.
	start := s.slot(0)
	first := k
	if start+first > s.capacity {
		first = s.capacity - start
	}
	s.clearSlotSpan(start, first)
	if rest := k - first; rest > 0 {
		s.clearSlotSpan(0, rest)
	}
	s.retained -= k
	return k
}

// clearSlotSpan zeroes bit positions [p, p+n) of every column: full interior
// words are zeroed outright, the partial head and tail words are masked, so
// each affected word is written once regardless of how many snapshots the
// span covers.
func (s *Store) clearSlotSpan(p, n int) {
	if n <= 0 {
		return
	}
	loWord, hiWord := p/wordBits, (p+n-1)/wordBits
	headMask := ^uint64(0) << uint(p%wordBits)
	tailMask := ^uint64(0) >> uint(wordBits-1-(p+n-1)%wordBits)
	if loWord == hiWord {
		mask := headMask & tailMask
		for i := range s.cols {
			s.cols[i][loWord] &^= mask
		}
		return
	}
	for i := range s.cols {
		col := s.cols[i]
		col[loWord] &^= headMask
		for w := loWord + 1; w < hiWord; w++ {
			col[w] = 0
		}
		col[hiWord] &^= tailMask
	}
}

// Column exposes series i's packed column. The slice aliases store storage
// and must be treated as read-only.
func (s *Store) Column(i int) []uint64 { return s.cols[i] }

// CongestedCount returns the number of snapshots in which series i was
// congested (a column popcount).
func (s *Store) CongestedCount(i int) int {
	return bitset.PopCountWords(s.cols[i])
}

// CountAnyCongested returns the number of snapshots in which at least one of
// the given series was congested: OR of the columns, then popcount. scratch
// is an optional reusable buffer of at least Words() words; pass nil to
// allocate. Bits past the last snapshot are never set, so no tail masking is
// needed.
func (s *Store) CountAnyCongested(series []int, scratch []uint64) int {
	switch len(series) {
	case 0:
		return 0
	case 1:
		return bitset.PopCountWords(s.cols[series[0]])
	}
	words := s.Words()
	if cap(scratch) < words {
		scratch = make([]uint64, words)
	}
	scratch = scratch[:words]
	copy(scratch, s.cols[series[0]])
	for _, i := range series[1:] {
		bitset.OrWords(scratch, s.cols[i])
	}
	return bitset.PopCountWords(scratch)
}

// CountAllGood returns the number of snapshots in which none of the given
// series was congested. An empty series list counts every retained snapshot.
func (s *Store) CountAllGood(series []int, scratch []uint64) int {
	return s.Snapshots() - s.CountAnyCongested(series, scratch)
}

// RowInto materializes snapshot t as a set of congested series into dst
// (cleared first). For a ring store t is window-relative: t = 0 is the
// oldest retained snapshot.
func (s *Store) RowInto(t int, dst *bitset.Set) {
	dst.Clear()
	p := s.slot(t)
	w := p / wordBits
	mask := uint64(1) << uint(p%wordBits)
	for i, col := range s.cols {
		if w < len(col) && col[w]&mask != 0 {
			dst.Add(i)
		}
	}
}

// Row materializes snapshot t as a freshly allocated set.
func (s *Store) Row(t int) *bitset.Set {
	dst := bitset.New(len(s.cols))
	s.RowInto(t, dst)
	return dst
}

// Rows materializes every retained snapshot row-major (oldest first for a
// ring store) — the compatibility view for code that still wants
// []*bitset.Set. It costs O(snapshots · series); hot paths should query
// columns instead.
func (s *Store) Rows() []*bitset.Set {
	out := make([]*bitset.Set, s.Snapshots())
	for t := range out {
		out[t] = s.Row(t)
	}
	return out
}

// SnapshotInto clones the store's current contents into dst and returns
// it: same series, same retained rows, same physical slot layout, so every
// count kernel answers identically on the clone. dst's backing storage is
// reused when its shape matches (the recycling path of copy-on-write view
// publication — a steady-state publisher allocates nothing); a nil or
// mismatched dst is reallocated. The clone is an independent Store: the
// source may keep appending without affecting it. SnapshotInto must not run
// concurrently with writes to either store, like every writer-side method.
//
// The cost is O(rows changed), not O(window), when dst is an unmodified
// earlier clone of this ring store — of any earlier generation: only the
// column words covering the slots appended and evicted since that clone
// are copied (see changedSpans). Any other dst — fresh, reshaped, cloned
// from a different store, written since, or behind by at least the
// capacity — takes a full copy. Either way every word of the clone equals
// the source's word. CopyCost reports which path the call took.
func (s *Store) SnapshotInto(dst *Store) *Store {
	if dst == nil {
		dst = &Store{id: storeIDs.Add(1)}
	}
	words := s.Words()
	fit := len(dst.cols) == len(s.cols)
	for i := 0; fit && i < len(dst.cols); i++ {
		fit = len(dst.cols[i]) == len(s.cols[i])
	}
	if !fit {
		dst.cols = make([][]uint64, len(s.cols))
		if words > 0 {
			backing := make([]uint64, words*len(s.cols))
			for i := range dst.cols {
				dst.cols[i] = backing[i*words : (i+1)*words : (i+1)*words]
			}
		}
	}
	var spans [4]wordSpan
	k, ok := 0, false
	if dst.cloneOf == s.id && dst.n == dst.cloneN && dst.retained == dst.cloneRetained {
		k, ok = s.changedSpans(dst.cloneN, dst.cloneRetained, &spans)
	}
	if ok {
		copied := 0
		for _, sp := range spans[:k] {
			for i, col := range s.cols {
				copy(dst.cols[i][sp.lo:sp.hi], col[sp.lo:sp.hi])
			}
			copied += sp.hi - sp.lo
		}
		dst.copied, dst.copiedFull = copied*len(s.cols), false
	} else {
		for i, col := range s.cols {
			copy(dst.cols[i], col)
		}
		dst.copied, dst.copiedFull = words*len(s.cols), true
	}
	dst.n, dst.capacity, dst.retained = s.n, s.capacity, s.retained
	dst.cloneOf, dst.cloneN, dst.cloneRetained = s.id, s.n, s.retained
	return dst
}

// CopyCost reports what the SnapshotInto that last filled this store cost:
// the column words it copied (summed over every series) and whether it was
// a full copy rather than a delta.
func (s *Store) CopyCost() (words int, full bool) { return s.copied, s.copiedFull }

// wordSpan is a half-open range [lo, hi) of column word indices.
type wordSpan struct{ lo, hi int }

// changedSpans lists, sorted and merged into spans, the column word ranges
// of a ring store that may differ from their contents when the store held
// (n0, r0). A ring's words change only where appends wrote — lifetime rows
// [n0, n) — and where evictions cleared — lifetime rows [n0−r0, n−retained)
// — each at most two linear slot spans mod capacity, mirroring DropOldest's
// split. ok is false for an unbounded store, whose SetBit writes anywhere,
// and for a range of at least the capacity, which touches every slot.
func (s *Store) changedSpans(n0, r0 int, spans *[4]wordSpan) (k int, ok bool) {
	appended := s.n - n0
	evicted := (s.n - s.retained) - (n0 - r0)
	if s.capacity == 0 || appended >= s.capacity || evicted >= s.capacity {
		return 0, false
	}
	add := func(p, m int) {
		if m > 0 {
			spans[k] = wordSpan{p / wordBits, (p+m-1)/wordBits + 1}
			k++
		}
	}
	for _, r := range [2]struct{ from, m int }{{n0, appended}, {n0 - r0, evicted}} {
		start := r.from % s.capacity
		first := r.m
		if start+first > s.capacity {
			first = s.capacity - start
		}
		add(start, first)
		add(0, r.m-first)
	}
	// Sort the (at most four) spans by start and merge overlapping or
	// adjacent ones, so no word is copied twice: in a full window the
	// appended and evicted slots coincide.
	for i := 1; i < k; i++ {
		for j := i; j > 0 && spans[j].lo < spans[j-1].lo; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	merged := 0
	for i := 0; i < k; i++ {
		if merged > 0 && spans[i].lo <= spans[merged-1].hi {
			if spans[i].hi > spans[merged-1].hi {
				spans[merged-1].hi = spans[i].hi
			}
			continue
		}
		spans[merged] = spans[i]
		merged++
	}
	return merged, true
}

// Equal reports whether the two stores hold identical retained
// observations, in order. Ring stores compare logically: a rotated window
// equals a fresh store over the same rows.
func (s *Store) Equal(t *Store) bool {
	if s.Snapshots() != t.Snapshots() || len(s.cols) != len(t.cols) {
		return false
	}
	if s.capacity != 0 || t.capacity != 0 {
		// A ring store's physical slots are rotated; compare row by row.
		a, b := bitset.New(len(s.cols)), bitset.New(len(t.cols))
		for ts := 0; ts < s.Snapshots(); ts++ {
			s.RowInto(ts, a)
			t.RowInto(ts, b)
			if !a.Equal(b) {
				return false
			}
		}
		return true
	}
	for i := range s.cols {
		a, b := s.cols[i], t.cols[i]
		for w := 0; w < s.Words(); w++ {
			var av, bv uint64
			if w < len(a) {
				av = a[w]
			}
			if w < len(b) {
				bv = b[w]
			}
			if av != bv {
				return false
			}
		}
	}
	return true
}
