package segstore

import (
	"fmt"
	mathbits "math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/snapstore"
)

// TieredStore is the out-of-core drop-in for a snapstore ring: snapshots
// append into a RAM write buffer of SegmentRows columns-in-progress; a full
// buffer is sealed to disk (span-compressed, checksummed, manifest-listed)
// and mapped back read-only, and the buffer restarts on the next block.
// Window-relative count queries sweep the sealed segments that overlap the
// retained window plus the active buffer, and return exactly the integer
// counts a RAM-only snapstore ring holding the same rows would — the
// bit-identity the differential tests pin.
//
// Semantics mirror snapstore exactly: the store retains at most capacity of
// the n appended snapshots, window row t addresses absolute row
// n−retained+t, and DropOldest/EvictOldest shrink the window without
// touching disk (sealed history stays on disk — that is the point — only
// the query window moves). Unlike the RAM ring, evicted rows are therefore
// still readable through OpenReader afterwards.
//
// Append-side I/O errors panic with a "segstore:"-prefixed message: an
// unwritable spill directory is infrastructure failure, equivalent to the
// RAM store's allocation failing, and none of the append call chain has an
// error path worth threading one through. Decode-side errors (corrupt
// files, bad manifests) are returned as errors by NewTiered/OpenReader.
//
// A TieredStore's mutating and counting methods are owned by one goroutine,
// like the measurement windows it backs. The exceptions, built for the
// read-replica serving path, are SnapshotView (called by the owner; the
// views it returns are read by other goroutines) and ReleaseMapped/Close,
// which synchronize on mu + per-segment reference counts so a mapping is
// never torn down or madvised away under a concurrent view reader.
type TieredStore struct {
	id       uint64 // names the store as a SnapshotView source
	dir      string
	series   int
	capacity int
	segRows  int
	words    int // per segment

	n        int // snapshots appended over the lifetime
	retained int // snapshots currently in the window

	// mu guards the sealed slice and the segment reference counts against
	// the cross-goroutine methods (SnapshotView retaining segments,
	// ReleaseMapped deciding a mapping is safe to madvise, Close releasing
	// the store's references). The owner's count sweeps read sealed without
	// mu — only the owner appends to it.
	mu      sync.Mutex
	sealed  []*segment // sealed[i].base == i*segRows
	active  segment    // dense write buffer for rows [active.base, active.base+segRows)
	backing []uint64   // active's column words, one contiguous allocation
	man     manifest
	spilled int64
	closed  bool
}

// NewTiered creates a spill-enabled window store: series columns, a query
// window of at most capacity snapshots, segments sealed into opts.Dir.
func NewTiered(series, capacity int, opts Options) (*TieredStore, error) {
	if series < 0 || series > maxSeries {
		return nil, fmt.Errorf("segstore: %d series outside [0, %d]", series, maxSeries)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("segstore: window capacity %d, want ≥ 1", capacity)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("segstore: Options.Dir is required")
	}
	segRows := opts.SegmentRows
	if segRows == 0 {
		segRows = DefaultSegmentRows
	}
	if segRows < wordBits || segRows > maxSegmentRows || segRows%wordBits != 0 {
		return nil, fmt.Errorf("segstore: segment rows %d, want a multiple of %d in [%d, %d]",
			segRows, wordBits, wordBits, maxSegmentRows)
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	manPath := filepath.Join(opts.Dir, ManifestName)
	if _, err := os.Stat(manPath); err == nil {
		if !opts.Reset {
			return nil, fmt.Errorf("segstore: %s already holds a segment store (set Options.Reset to discard it, or inspect it with OpenReader)", opts.Dir)
		}
		if err := resetDir(opts.Dir); err != nil {
			return nil, err
		}
	}
	words := segRows / wordBits
	ts := &TieredStore{
		id:       storeIDs.Add(1),
		dir:      opts.Dir,
		series:   series,
		capacity: capacity,
		segRows:  segRows,
		words:    words,
		backing:  make([]uint64, words*series),
		man:      manifest{Version: formatVersion, Series: series, SegmentRows: segRows},
	}
	ts.active = segment{
		rows:  segRows,
		words: words,
		meta:  make([]colMeta, series),
		data:  ts.backing,
	}
	for i := range ts.active.meta {
		ts.active.meta[i] = colMeta{lo: 0, hi: words, off: i * words}
	}
	if err := ts.writeManifest(); err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	return ts, nil
}

// storeIDs hands out TieredStore ids; 0 is never issued, so a fresh view
// matches no source.
var storeIDs atomic.Uint64

// resetDir removes an existing store (manifest, segments, stray temp files)
// from dir.
func resetDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segstore: %v", err)
	}
	for _, e := range entries {
		name := e.Name()
		stale := name == ManifestName ||
			(strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg")) ||
			strings.Contains(name, ".tmp-")
		if !stale {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("segstore: %v", err)
		}
	}
	return nil
}

func (ts *TieredStore) writeManifest() error {
	return atomicWriteFile(ts.dir, ManifestName, encodeManifest(&ts.man))
}

// NumSeries returns the number of columns.
func (ts *TieredStore) NumSeries() int { return ts.series }

// Snapshots returns the window occupancy — the rows count queries run over.
func (ts *TieredStore) Snapshots() int { return ts.retained }

// Appended returns the number of snapshots ever appended.
func (ts *TieredStore) Appended() int { return ts.n }

// Capacity returns the window capacity.
func (ts *TieredStore) Capacity() int { return ts.capacity }

// SegmentRows returns the seal granularity.
func (ts *TieredStore) SegmentRows() int { return ts.segRows }

// SealedSegments returns how many segments have been sealed to disk.
func (ts *TieredStore) SealedSegments() int { return len(ts.sealed) }

// SpilledBytes returns the total bytes of sealed segment files written.
func (ts *TieredStore) SpilledBytes() int64 { return ts.spilled }

// Dir returns the spill directory.
func (ts *TieredStore) Dir() string { return ts.dir }

// window returns the absolute row range [from, to) of the retained window.
func (ts *TieredStore) window() (from, to int) { return ts.n - ts.retained, ts.n }

// Append ingests one snapshot and returns its lifetime index, evicting the
// oldest retained snapshot silently when the window is full.
func (ts *TieredStore) Append(congested *bitset.Set) int {
	t := ts.n
	ts.AppendEvict(congested, nil)
	return t
}

// AppendEvict ingests one snapshot, evicting the oldest retained snapshot
// first when the window is full. It reports whether an eviction happened
// and, when evicted is non-nil, leaves the evicted snapshot's congested
// series in it (cleared otherwise) — the same contract as
// snapstore.Store.AppendEvict.
func (ts *TieredStore) AppendEvict(congested, evicted *bitset.Set) bool {
	didEvict := false
	if ts.retained == ts.capacity {
		didEvict = ts.EvictOldest(evicted)
	} else if evicted != nil {
		evicted.Clear()
	}
	r := ts.n - ts.active.base
	w, mask := r/wordBits, uint64(1)<<uint(r%wordBits)
	congested.ForEach(func(i int) bool {
		if i >= ts.series {
			panic(fmt.Sprintf("segstore: series %d out of range (%d series)", i, ts.series))
		}
		m := &ts.active.meta[i]
		p := &ts.backing[m.off+w]
		if *p&mask == 0 {
			*p |= mask
			m.pop++
		}
		return true
	})
	ts.n++
	ts.retained++
	if r+1 == ts.segRows {
		ts.seal()
	}
	return didEvict
}

// AppendEvictWords is AppendEvict with the snapshot presented as packed
// words (bit i of word w ⇒ series w*64+i congested) — the wire-ingest fast
// path, bit-identical to AppendEvict over an equal set. rowWords may carry
// fewer than ⌈series/64⌉ words (missing words mean all-good); a bit at or
// past the series count panics like AppendEvict's out-of-range series.
func (ts *TieredStore) AppendEvictWords(rowWords []uint64, evicted *bitset.Set) bool {
	didEvict := false
	if ts.retained == ts.capacity {
		didEvict = ts.EvictOldest(evicted)
	} else if evicted != nil {
		evicted.Clear()
	}
	r := ts.n - ts.active.base
	w, mask := r/wordBits, uint64(1)<<uint(r%wordBits)
	for wi, wv := range rowWords {
		for wv != 0 {
			b := mathbits.TrailingZeros64(wv)
			wv &= wv - 1
			i := wi*wordBits + b
			if i >= ts.series {
				panic(fmt.Sprintf("segstore: series %d out of range (%d series)", i, ts.series))
			}
			m := &ts.active.meta[i]
			p := &ts.backing[m.off+w]
			if *p&mask == 0 {
				*p |= mask
				m.pop++
			}
		}
	}
	ts.n++
	ts.retained++
	if r+1 == ts.segRows {
		ts.seal()
	}
	return didEvict
}

// EvictOldest shrinks the window by one snapshot, reporting whether one was
// evicted and leaving its congested series in evicted when non-nil. The row
// stays on disk if it was sealed; only the window boundary moves.
func (ts *TieredStore) EvictOldest(evicted *bitset.Set) bool {
	if evicted != nil {
		evicted.Clear()
	}
	if ts.retained == 0 {
		return false
	}
	if evicted != nil {
		ts.rowInto(ts.n-ts.retained, evicted)
	}
	ts.retained--
	return true
}

// DropOldest shrinks the window by the k oldest snapshots and returns how
// many were dropped (min(k, retained)). Dropped rows are not reported, like
// snapstore.Store.DropOldest; unlike it, nothing is cleared — sealed rows
// remain on disk and active-buffer rows simply leave the query range.
func (ts *TieredStore) DropOldest(k int) int {
	if k > ts.retained {
		k = ts.retained
	}
	if k <= 0 {
		return 0
	}
	ts.retained -= k
	return k
}

// seal writes the full active buffer to disk, maps it back, and restarts
// the buffer on the next row block. See the type comment for why I/O
// failure panics.
func (ts *TieredStore) seal() {
	name := fmt.Sprintf("seg-%08d.seg", len(ts.sealed))
	buf := encodeSegment(&ts.active)
	if err := atomicWriteFile(ts.dir, name, buf); err != nil {
		panic(fmt.Sprintf("segstore: sealing %s: %v", name, err))
	}
	ts.man.Segments = append(ts.man.Segments, manifestSegment{
		File: name,
		Base: uint64(ts.active.base),
		CRC:  crcOfEncoded(buf),
	})
	if err := ts.writeManifest(); err != nil {
		panic(fmt.Sprintf("segstore: manifest after sealing %s: %v", name, err))
	}
	seg, err := openSegment(filepath.Join(ts.dir, name))
	if err != nil {
		panic(fmt.Sprintf("segstore: reading back %s: %v", name, err))
	}
	ts.mu.Lock()
	ts.sealed = append(ts.sealed, seg)
	ts.mu.Unlock()
	ts.spilled += int64(len(buf))
	bitset.ZeroWords(ts.backing)
	for i := range ts.active.meta {
		ts.active.meta[i].pop = 0
	}
	ts.active.base += ts.segRows
}

// crcOfEncoded extracts the data CRC field from an encoded segment image.
func crcOfEncoded(buf []byte) uint32 {
	return uint32(buf[40]) | uint32(buf[41])<<8 | uint32(buf[42])<<16 | uint32(buf[43])<<24
}

// openSegment opens a sealed segment file, preferring a shared read-only
// mapping and falling back to a heap read where mmap is unavailable.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	size := st.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("segstore: %s: %d bytes does not fit in memory", path, size)
	}
	if mapped, merr := mmapFile(f, int(size)); merr == nil {
		seg, perr := parseSegment(mapped, path)
		if perr != nil {
			munmap(mapped)
			return nil, perr
		}
		seg.mapped = mapped
		seg.refs.Store(1)
		return seg, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	seg, err := parseSegment(data, path)
	if err != nil {
		return nil, err
	}
	seg.refs.Store(1)
	return seg, nil
}

// overlap clips the window [from, to) to segment s and returns the
// segment-relative row range.
func overlap(s *segment, from, to int) (lo, hi int) {
	lo, hi = from-s.base, to-s.base
	if lo < 0 {
		lo = 0
	}
	if hi > s.rows {
		hi = s.rows
	}
	return
}

// windowSealed returns the sealed segments that overlap the retained
// window (sealed[i] covers rows [i·segRows, (i+1)·segRows), so the slice
// starts at the oldest retained row's segment).
func (ts *TieredStore) windowSealed() []*segment {
	from, _ := ts.window()
	i := from / ts.segRows
	if i > len(ts.sealed) {
		i = len(ts.sealed)
	}
	return ts.sealed[i:]
}

// activeOverlap returns the active buffer's row range inside the window,
// empty when the window ends before the buffer starts.
func (ts *TieredStore) activeOverlap() (lo, hi int, ok bool) {
	from, to := ts.window()
	if to <= ts.active.base {
		return 0, 0, false
	}
	lo, hi = overlap(&ts.active, from, to)
	return lo, hi, lo < hi
}

// CongestedCount returns the number of window snapshots in which series i
// was congested.
func (ts *TieredStore) CongestedCount(i int) int {
	ts.checkSeries(i)
	from, to := ts.window()
	n := 0
	for _, seg := range ts.windowSealed() {
		lo, hi := overlap(seg, from, to)
		n += seg.seriesCount(i, lo, hi)
	}
	if lo, hi, ok := ts.activeOverlap(); ok {
		n += ts.active.seriesCount(i, lo, hi)
	}
	return n
}

// CountAllGood returns the number of window snapshots in which none of the
// given series was congested. An empty series list counts every retained
// snapshot.
func (ts *TieredStore) CountAllGood(series []int) int {
	for _, i := range series {
		ts.checkSeries(i)
	}
	from, to := ts.window()
	bad := 0
	for _, seg := range ts.windowSealed() {
		lo, hi := overlap(seg, from, to)
		bad += seg.anyCount(series, lo, hi)
	}
	if lo, hi, ok := ts.activeOverlap(); ok {
		bad += ts.active.anyCount(series, lo, hi)
	}
	return ts.retained - bad
}

// CountPairGood returns the number of window snapshots in which neither
// series i nor j was congested.
func (ts *TieredStore) CountPairGood(i, j int) int {
	ts.checkSeries(i)
	ts.checkSeries(j)
	from, to := ts.window()
	bad := 0
	for _, seg := range ts.windowSealed() {
		lo, hi := overlap(seg, from, to)
		bad += seg.pairCount(i, j, lo, hi)
	}
	if lo, hi, ok := ts.activeOverlap(); ok {
		bad += ts.active.pairCount(i, j, lo, hi)
	}
	return ts.retained - bad
}

// CountPairsGood fills out[i] with the number of window snapshots in which
// neither series of pairs[i] was congested. The sweep is segment-major so
// each mapped segment's pages are touched once for the whole batch, and
// each segment's column directory (word span and popcount) serves untouched
// or disjoint columns without touching a page.
func (ts *TieredStore) CountPairsGood(pairs []snapstore.Pair, out []int) {
	if len(out) < len(pairs) {
		panic(fmt.Sprintf("segstore: CountPairsGood out has %d slots for %d pairs", len(out), len(pairs)))
	}
	for i, p := range pairs {
		ts.checkSeries(p.A)
		ts.checkSeries(p.B)
		out[i] = 0
	}
	from, to := ts.window()
	for _, seg := range ts.windowSealed() {
		lo, hi := overlap(seg, from, to)
		if lo >= hi {
			continue
		}
		for i, p := range pairs {
			out[i] += seg.pairCount(p.A, p.B, lo, hi)
		}
	}
	if lo, hi, ok := ts.activeOverlap(); ok {
		for i, p := range pairs {
			out[i] += ts.active.pairCount(p.A, p.B, lo, hi)
		}
	}
	for i := range pairs {
		out[i] = ts.retained - out[i]
	}
}

// Bit reports whether series i was congested in window snapshot t.
func (ts *TieredStore) Bit(i, t int) bool {
	ts.checkSeries(i)
	if t < 0 || t >= ts.retained {
		return false
	}
	from, _ := ts.window()
	abs := from + t
	if k := abs / ts.segRows; k < len(ts.sealed) {
		return ts.sealed[k].bit(i, abs-ts.sealed[k].base)
	}
	return ts.active.bit(i, abs-ts.active.base)
}

// RowInto materializes window snapshot t as a set of congested series into
// dst (cleared first); t = 0 is the oldest retained snapshot.
func (ts *TieredStore) RowInto(t int, dst *bitset.Set) {
	dst.Clear()
	if t < 0 || t >= ts.retained {
		panic(fmt.Sprintf("segstore: snapshot %d outside window [0, %d)", t, ts.retained))
	}
	from, _ := ts.window()
	ts.rowInto(from+t, dst)
}

// rowInto materializes absolute row abs into dst (not cleared).
func (ts *TieredStore) rowInto(abs int, dst *bitset.Set) {
	if k := abs / ts.segRows; k < len(ts.sealed) {
		ts.sealed[k].rowInto(abs-ts.sealed[k].base, dst)
		return
	}
	ts.active.rowInto(abs-ts.active.base, dst)
}

func (ts *TieredStore) checkSeries(i int) {
	if i < 0 || i >= ts.series {
		panic(fmt.Sprintf("segstore: series %d out of range (%d series)", i, ts.series))
	}
}

// ReleaseMapped hints the kernel to drop the resident pages of every
// sealed mapping (they fault back in from the page cache on the next
// query) — the RSS pressure valve for replay loops that only revisit old
// segments at checkpoints. Segments a snapshot view currently holds a
// reference to are skipped: madvising pages away under a concurrent count
// sweep is exactly the use-while-released race the reference counts exist
// to prevent, and a view's segments get their turn on the first
// ReleaseMapped after the view closes. Safe to call from any goroutine.
func (ts *TieredStore) ReleaseMapped() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, seg := range ts.sealed {
		if seg.mapped != nil && seg.refs.Load() == 1 {
			releasePages(seg.mapped)
		}
	}
}

// AdviseSequential hints the kernel that the sealed mappings are about to
// be swept front to back (MADV_SEQUENTIAL: doubled readahead, pages dropped
// soon after use) — the replay-side counterpart of ReleaseMapped, for
// checkpointed sweeps over cold history. Heap-fallback segments
// (mapped == nil, the path openSegment takes where mmap is unavailable) are
// untouched: the hint only means anything for a live mapping. Purely
// advisory; unlike ReleaseMapped it does not skip segments held by views,
// because a readahead hint never invalidates resident pages.
func (ts *TieredStore) AdviseSequential() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, seg := range ts.sealed {
		if seg.mapped != nil {
			adviseSequential(seg.mapped)
		}
	}
}

// Close releases the store's reference to every sealed segment; a segment
// is unmapped as soon as the last snapshot view holding it closes (or
// immediately, with no views outstanding). The active buffer is
// deliberately not sealed — only full segments ever reach disk, which keeps
// the format fixed-size and recovery trivial; rows still in the buffer at
// Close are gone, exactly as a RAM ring's rows are. Close is idempotent,
// and no methods may be called after it.
func (ts *TieredStore) Close() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.closed {
		return
	}
	ts.closed = true
	for _, seg := range ts.sealed {
		seg.release()
	}
	ts.sealed = nil
	ts.backing = nil
	ts.active.data = nil
}

// Reader is the recovery-side view of a segment directory: the manifest's
// sealed segments, checksum-verified, addressed by absolute row.
type Reader struct {
	series  int
	segRows int
	segs    []*segment
}

// OpenReader opens the sealed segments a manifest names, verifying each
// file's checksums and its manifest CRC. Files the manifest does not name
// (a crash's half-written temp files, a superseded seal) are ignored —
// the manifest is the single source of truth.
func OpenReader(dir string) (*Reader, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	man, err := parseManifest(raw)
	if err != nil {
		return nil, err
	}
	r := &Reader{series: man.Series, segRows: man.SegmentRows}
	for i, ent := range man.Segments {
		seg, err := openSegment(filepath.Join(dir, ent.File))
		if err != nil {
			r.Close()
			return nil, err
		}
		if seg.crc != ent.CRC {
			r.Close()
			seg.release()
			return nil, fmt.Errorf("segstore: %s: data CRC %08x, manifest says %08x", ent.File, seg.crc, ent.CRC)
		}
		if len(seg.meta) != man.Series || seg.rows != man.SegmentRows || seg.base != i*man.SegmentRows {
			r.Close()
			seg.release()
			return nil, fmt.Errorf("segstore: %s: header (series %d, rows %d, base %d) disagrees with manifest (series %d, rows %d, base %d)",
				ent.File, len(seg.meta), seg.rows, seg.base, man.Series, man.SegmentRows, i*man.SegmentRows)
		}
		r.segs = append(r.segs, seg)
	}
	return r, nil
}

// NumSeries returns the number of columns.
func (r *Reader) NumSeries() int { return r.series }

// SegmentRows returns the rows per segment.
func (r *Reader) SegmentRows() int { return r.segRows }

// Segments returns the number of sealed segments.
func (r *Reader) Segments() int { return len(r.segs) }

// Rows returns the total sealed rows.
func (r *Reader) Rows() int { return len(r.segs) * r.segRows }

// Bit reports whether series i was congested in absolute row t.
func (r *Reader) Bit(i, t int) bool {
	if t < 0 || t >= r.Rows() || i < 0 || i >= r.series {
		return false
	}
	return r.segs[t/r.segRows].bit(i, t%r.segRows)
}

// RowInto materializes absolute row t into dst (cleared first).
func (r *Reader) RowInto(t int, dst *bitset.Set) {
	dst.Clear()
	if t < 0 || t >= r.Rows() {
		return
	}
	r.segs[t/r.segRows].rowInto(t%r.segRows, dst)
}

// CongestedCount returns how many sealed rows have series i congested.
func (r *Reader) CongestedCount(i int) int {
	n := 0
	for _, seg := range r.segs {
		n += seg.meta[i].pop
	}
	return n
}

// Close unmaps every segment. Idempotent.
func (r *Reader) Close() {
	for _, seg := range r.segs {
		seg.release()
	}
	r.segs = nil
}
