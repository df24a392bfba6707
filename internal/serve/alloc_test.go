package serve

import (
	"math"
	"runtime"
	"testing"

	tomography "repro"
)

// TestBinaryIngestSteadyStateAllocs is the allocation budget of the binary
// ingest hot path: once the word-batch buffer and the tenant's window are
// warm, decoding a TOMOW1 body into the reused batch and appending it
// through Window.ObserveBatchWords must be garbage-free — O(1) allocations
// per batch means zero in the steady state, regardless of the batch's
// snapshot count. This is the serving-layer counterpart of the
// TestWindowedInferenceSteadyStateAllocs gate CI enforces.
func TestBinaryIngestSteadyStateAllocs(t *testing.T) {
	scn, err := tomography.BuildScenario("quickstart", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := simulateScenario(scn, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := encodeStreamBinary(rec, 64)
	if err != nil {
		t.Fatal(err)
	}
	numPaths := scn.Topology.NumPaths()

	// A detector that never alarms, so the measurement sees only the
	// decode + append path and not change-point bookkeeping.
	win, err := tomography.NewWindow(scn.Topology, tomography.WindowConfig{
		Size:      256,
		Estimator: "correlation",
		Detector:  &tomography.ChangeDetector{Warmup: math.MaxInt32, Drift: 1, Threshold: 1e18, Smoothing: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()

	wb := getWordBatch()
	defer putWordBatch(wb)
	next := 0
	step := func() {
		body := bodies[next%len(bodies)]
		next++
		if err := decodeReportsBinaryInto(wb, body, numPaths, DefaultMaxBatch); err != nil {
			t.Fatal(err)
		}
		win.ObserveBatchWords(wb.words, wb.wordsPerRow, wb.rows)
	}
	// Warm-up: two full cycles through the stream fill the window past its
	// ring capacity and charge every congestion pattern the stream contains
	// into the live histogram, so the measured steady state sees no
	// first-time pattern insertions.
	for i := 0; i < 2*len(bodies); i++ {
		step()
	}
	if got := testing.AllocsPerRun(50, step); got > 0 {
		t.Fatalf("steady-state binary decode+append allocates %.2f objects/batch, want 0", got)
	}
}

// TestViewPublishSteadyState is the publication budget at a large window:
// once a 65536-snapshot window is full, applying a 64-snapshot batch and
// publishing its read-replica view copies only the words covering that
// batch (read from the daemon's own copied-words counter, not estimated)
// and allocates nothing but the fixed viewBox and its supersede channel —
// never a window-sized view. Every published view must equal the live
// window word for word.
func TestViewPublishSteadyState(t *testing.T) {
	const window, batch = 65536, 64
	scn, err := tomography.BuildScenario("quickstart", 1)
	if err != nil {
		t.Fatal(err)
	}
	numPaths := scn.Topology.NumPaths()
	win, err := tomography.NewWindow(scn.Topology, tomography.WindowConfig{
		Size:      window,
		Estimator: "correlation",
		Detector:  &tomography.ChangeDetector{Warmup: math.MaxInt32, Drift: 1, Threshold: 1e18, Smoothing: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	// The daemon's workers are not needed: this goroutine plays the
	// tenant's shard worker, the sole writer of its window.
	var d Daemon
	tn := &Tenant{name: "big", window: window, numPaths: numPaths, win: win}
	d.publishView(tn)

	words := make([]uint64, batch)
	next := uint64(0)
	step := func() {
		for r := range words {
			next++
			words[r] = (next * 0x9e3779b97f4a7c15 >> 40) & (1<<uint(numPaths) - 1)
		}
		win.ObserveBatchWords(words, 1, batch)
		d.publishView(tn)
	}
	checkView := func(what string) {
		t.Helper()
		got, want := tn.view.Load().view.Source().Store(), win.Source().Store()
		for i := 0; i < numPaths; i++ {
			g, w := got.Column(i), want.Column(i)
			for k := range w {
				if g[k] != w[k] {
					t.Fatalf("%s: path %d word %d of the published view differs from the window", what, i, k)
				}
			}
		}
	}
	for i := 0; i < window/batch+8; i++ {
		step()
	}
	checkView("warm-up")

	// At most two words per path per batch: a 64-row batch straddles at
	// most one word boundary of the ring.
	perBatch := int64(2 * numPaths)
	const fixedAllocs = 2 // the viewBox and its changed channel
	full0, words0 := d.metrics.viewPublishFull.Load(), d.metrics.viewPublishWords.Load()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const runs = 50
	allocs := testing.AllocsPerRun(runs, step)
	runtime.ReadMemStats(&ms1)
	if allocs > fixedAllocs {
		t.Fatalf("steady-state apply+publish allocates %.2f objects, want at most the %d of the box", allocs, fixedAllocs)
	}
	if perPublish := (ms1.TotalAlloc - ms0.TotalAlloc) / (runs + 1); perPublish > 1024 {
		t.Fatalf("steady-state publish allocates %d bytes, want a box's worth, not a view (a full view is %d bytes)",
			perPublish, 8*numPaths*window/64)
	}
	if full := d.metrics.viewPublishFull.Load() - full0; full != 0 {
		t.Fatalf("%d steady-state publishes fell back to the full copy", full)
	}
	if copied := d.metrics.viewPublishWords.Load() - words0; copied > (runs+1)*perBatch {
		t.Fatalf("%d publishes copied %d words, want at most %d per batch", runs+1, copied, perBatch)
	}
	checkView("steady state")

}
