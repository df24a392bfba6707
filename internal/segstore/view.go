package segstore

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/snapstore"
)

// TieredView is an immutable snapshot of a TieredStore's retained window,
// built by SnapshotView for estimate-side read replicas: the sealed
// segments are shared by reference (each view holds one reference count per
// segment, so the owner's seal/ReleaseMapped/Close can never unmap or
// madvise a mapping under the view's count sweeps) and only the active
// write buffer is copied — and of it, when the view is recycled from the
// same store, only the rows appended since. Count queries answer exactly
// what the source store would have answered at snapshot time,
// bit-identically — the copy-on-write contract the serving layer's replica
// estimates pin.
//
// A view is safe for use by one reader goroutine at a time (its count
// methods share scratch-free segment kernels but the measure layer above
// serializes queries per estimator); different views are fully independent.
// Views never mutate: the append/evict methods panic. Close releases the
// segment references and is idempotent; a closed view may be recycled
// through the next SnapshotView.
type TieredView struct {
	series   int
	segRows  int
	words    int // per segment
	capacity int

	n        int // source's lifetime append count at snapshot time
	retained int // source's window occupancy at snapshot time

	segs    []*segment // retained sealed segments overlapping the window
	segOff  int        // segs[0] is the segOff-th sealed segment overall
	active  segment    // copied write buffer
	backing []uint64   // active's column words, reused across recycles
	closed  bool

	from       uint64 // id of the store backing was copied from (0: none)
	copied     int    // active-buffer words the last SnapshotView copied
	copiedFull bool   // whether that was the whole buffer
}

// SnapshotView freezes the store's retained window into an immutable view.
// Sealed segments are retained by reference — O(segments) pointer work —
// and the active buffer is copied: in full (at most SegmentRows rows) for
// a fresh view, a view of another store, or after a seal, but only the
// words covering the rows appended since when recycle is an earlier view
// of this store whose buffer is still the active one (appends are the
// buffer's only writes until the next seal restarts it). The cost is
// independent of the window size either way. Passing a previous view as
// recycle closes it and reuses its buffers; a steady-state publisher
// allocates nothing. Must be called by the store's owning goroutine (it
// reads the active buffer), which is also why the returned view observes a
// consistent window.
func (ts *TieredStore) SnapshotView(recycle *TieredView) *TieredView {
	if ts.closed {
		panic("segstore: SnapshotView on a closed store")
	}
	v := recycle
	if v != nil {
		v.Close()
	}
	if v == nil || v.series != ts.series || v.segRows != ts.segRows {
		v = &TieredView{series: ts.series, segRows: ts.segRows, words: ts.words}
		v.backing = make([]uint64, ts.words*ts.series)
		v.active = segment{rows: ts.segRows, words: ts.words, meta: make([]colMeta, ts.series), data: v.backing}
		for i := range v.active.meta {
			v.active.meta[i] = colMeta{lo: 0, hi: ts.words, off: i * ts.words}
		}
	}
	if v.from == ts.id && v.active.base == ts.active.base {
		// Rows [v.n, ts.n) of the same buffer generation: copy the words
		// holding them, from the one v.n's row shares with older rows.
		lo := (v.n - ts.active.base) / wordBits
		hi := (ts.n - ts.active.base + wordBits - 1) / wordBits
		for i := 0; i < ts.series; i++ {
			off := i * ts.words
			copy(v.backing[off+lo:off+hi], ts.backing[off+lo:off+hi])
		}
		v.copied, v.copiedFull = (hi-lo)*ts.series, false
	} else {
		copy(v.backing, ts.backing)
		v.copied, v.copiedFull = len(ts.backing), true
	}
	v.from = ts.id
	v.closed = false
	v.capacity = ts.capacity
	v.n, v.retained = ts.n, ts.retained
	ts.mu.Lock()
	v.segs = append(v.segs[:0], ts.windowSealed()...)
	for _, seg := range v.segs {
		// The store's own reference is live (we hold its mutex and it is not
		// closed), so a plain increment cannot race a final release.
		seg.refs.Add(1)
	}
	ts.mu.Unlock()
	v.segOff = 0
	if len(v.segs) > 0 {
		v.segOff = v.segs[0].base / ts.segRows
	}
	for i := range ts.active.meta {
		v.active.meta[i].pop = ts.active.meta[i].pop
	}
	v.active.base = ts.active.base
	return v
}

// CopyCost reports what the SnapshotView that produced this view copied:
// active-buffer words summed over every series, and whether that was the
// whole buffer rather than the rows appended since the recycled view.
func (v *TieredView) CopyCost() (words int, full bool) { return v.copied, v.copiedFull }

// NumSeries returns the number of columns.
func (v *TieredView) NumSeries() int { return v.series }

// Snapshots returns the window occupancy at snapshot time.
func (v *TieredView) Snapshots() int { return v.retained }

// Appended returns the source's lifetime append count at snapshot time.
func (v *TieredView) Appended() int { return v.n }

// Capacity returns the source window's capacity.
func (v *TieredView) Capacity() int { return v.capacity }

// SealedSegments returns how many sealed segments the view holds.
func (v *TieredView) SealedSegments() int { return len(v.segs) }

// window returns the absolute row range [from, to) of the frozen window.
func (v *TieredView) window() (from, to int) { return v.n - v.retained, v.n }

// AppendEvict panics: views are immutable.
func (v *TieredView) AppendEvict(congested, evicted *bitset.Set) bool {
	panic("segstore: AppendEvict on an immutable snapshot view")
}

// AppendEvictWords panics: views are immutable.
func (v *TieredView) AppendEvictWords(rowWords []uint64, evicted *bitset.Set) bool {
	panic("segstore: AppendEvictWords on an immutable snapshot view")
}

// EvictOldest panics: views are immutable.
func (v *TieredView) EvictOldest(evicted *bitset.Set) bool {
	panic("segstore: EvictOldest on an immutable snapshot view")
}

// DropOldest panics: views are immutable.
func (v *TieredView) DropOldest(k int) int {
	panic("segstore: DropOldest on an immutable snapshot view")
}

// activeOverlap returns the copied buffer's row range inside the window,
// empty when the window ends before the buffer starts.
func (v *TieredView) activeOverlap() (lo, hi int, ok bool) {
	from, to := v.window()
	if to <= v.active.base {
		return 0, 0, false
	}
	lo, hi = overlap(&v.active, from, to)
	return lo, hi, lo < hi
}

// CongestedCount returns the number of window snapshots in which series i
// was congested.
func (v *TieredView) CongestedCount(i int) int {
	v.checkSeries(i)
	from, to := v.window()
	n := 0
	for _, seg := range v.segs {
		lo, hi := overlap(seg, from, to)
		n += seg.seriesCount(i, lo, hi)
	}
	if lo, hi, ok := v.activeOverlap(); ok {
		n += v.active.seriesCount(i, lo, hi)
	}
	return n
}

// CountAllGood returns the number of window snapshots in which none of the
// given series was congested. An empty series list counts every retained
// snapshot.
func (v *TieredView) CountAllGood(series []int) int {
	for _, i := range series {
		v.checkSeries(i)
	}
	from, to := v.window()
	bad := 0
	for _, seg := range v.segs {
		lo, hi := overlap(seg, from, to)
		bad += seg.anyCount(series, lo, hi)
	}
	if lo, hi, ok := v.activeOverlap(); ok {
		bad += v.active.anyCount(series, lo, hi)
	}
	return v.retained - bad
}

// CountPairGood returns the number of window snapshots in which neither
// series i nor j was congested.
func (v *TieredView) CountPairGood(i, j int) int {
	v.checkSeries(i)
	v.checkSeries(j)
	from, to := v.window()
	bad := 0
	for _, seg := range v.segs {
		lo, hi := overlap(seg, from, to)
		bad += seg.pairCount(i, j, lo, hi)
	}
	if lo, hi, ok := v.activeOverlap(); ok {
		bad += v.active.pairCount(i, j, lo, hi)
	}
	return v.retained - bad
}

// CountPairsGood fills out[i] with the number of window snapshots in which
// neither series of pairs[i] was congested — the same segment-major sweep
// as TieredStore.CountPairsGood, over the frozen window.
func (v *TieredView) CountPairsGood(pairs []snapstore.Pair, out []int) {
	if len(out) < len(pairs) {
		panic(fmt.Sprintf("segstore: CountPairsGood out has %d slots for %d pairs", len(out), len(pairs)))
	}
	for i, p := range pairs {
		v.checkSeries(p.A)
		v.checkSeries(p.B)
		out[i] = 0
	}
	from, to := v.window()
	for _, seg := range v.segs {
		lo, hi := overlap(seg, from, to)
		if lo >= hi {
			continue
		}
		for i, p := range pairs {
			out[i] += seg.pairCount(p.A, p.B, lo, hi)
		}
	}
	if lo, hi, ok := v.activeOverlap(); ok {
		for i, p := range pairs {
			out[i] += v.active.pairCount(p.A, p.B, lo, hi)
		}
	}
	for i := range pairs {
		out[i] = v.retained - out[i]
	}
}

// Bit reports whether series i was congested in window snapshot t.
func (v *TieredView) Bit(i, t int) bool {
	v.checkSeries(i)
	if t < 0 || t >= v.retained {
		return false
	}
	from, _ := v.window()
	abs := from + t
	if k := abs/v.segRows - v.segOff; k >= 0 && k < len(v.segs) {
		return v.segs[k].bit(i, abs-v.segs[k].base)
	}
	return v.active.bit(i, abs-v.active.base)
}

// RowInto materializes window snapshot t as a set of congested series into
// dst (cleared first); t = 0 is the oldest retained snapshot.
func (v *TieredView) RowInto(t int, dst *bitset.Set) {
	dst.Clear()
	if t < 0 || t >= v.retained {
		panic(fmt.Sprintf("segstore: snapshot %d outside window [0, %d)", t, v.retained))
	}
	from, _ := v.window()
	abs := from + t
	if k := abs/v.segRows - v.segOff; k >= 0 && k < len(v.segs) {
		v.segs[k].rowInto(abs-v.segs[k].base, dst)
		return
	}
	v.active.rowInto(abs-v.active.base, dst)
}

func (v *TieredView) checkSeries(i int) {
	if i < 0 || i >= v.series {
		panic(fmt.Sprintf("segstore: series %d out of range (%d series)", i, v.series))
	}
}

// Close releases the view's segment references; the last holder of a
// segment unmaps it. Idempotent; a closed view holds no segments and may be
// recycled through SnapshotView.
func (v *TieredView) Close() {
	if v.closed {
		return
	}
	v.closed = true
	for _, seg := range v.segs {
		seg.release()
	}
	v.segs = v.segs[:0]
}
