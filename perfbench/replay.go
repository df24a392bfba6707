package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	tomography "repro"
)

// The replay-spill workload: one diurnal-week-class topology, 400000
// snapshots, a spill window of 262144 snapshots in segments of 65536 rows,
// an estimate every 65536 snapshots once the window is full.
const (
	replayFixture   = "diurnal-week-7"
	replaySnapshots = 400000
	replayWindow    = 262144
	replaySegment   = 65536
	replayStride    = 65536
	onlineBlock     = 64 // rows per timed append in the online phase
	onlineEstimates = 20 // timed estimates per child in the online phase
	traceBlock      = 1024
)

var traceDir = filepath.Join(".bench_build", "trace")

// checkpoint is one estimate of the replay.
type checkpoint struct {
	T      int       `json:"t"`
	Probs  []float64 `json:"probs"`
	Solver string    `json:"solver"`
	Eqs    int       `json:"eqs"`
	Rank   int       `json:"rank"`
}

// childReport is what one replay child measured, sent to the parent as
// the last line of its standard output.
type childReport struct {
	LoadNs      int64        `json:"load_ns"` // reading the input, left out of setup_s
	ReplayNs    int64        `json:"replay_ns"`
	ReplaySteal float64      `json:"replay_steal"` // host steal share during the replay
	OnlineSteal float64      `json:"online_steal"` // … and during the online phase
	CPUNs       int64        `json:"cpu_ns"`
	MaxRSSKiB   int64        `json:"max_rss_kib"`
	Checkpoints []checkpoint `json:"checkpoints"`
	IngestNs    []int64      `json:"ingest_ns"`
	EstimateNs  []int64      `json:"estimate_ns"`
	Layers      metrics      `json:"layers,omitempty"`
	Broken      []string     `json:"broken,omitempty"`
}

func spillConfig(dir string) *tomography.SpillConfig {
	return &tomography.SpillConfig{Dir: dir, SegmentRows: replaySegment, Reset: true}
}

func replayWorkload(ctx context.Context, seed int64, seconds int, trace bool) (*outcome, error) {
	f, err := loadFixture(replayFixture)
	if err != nil {
		return nil, err
	}
	paths, links := newMarkov(f, uint64(seed)).stream(replaySnapshots)
	work, err := filepath.Abs(filepath.Join(".bench_build", "tmp", fmt.Sprintf("replay-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	input := filepath.Join(work, "input.bin")
	buf := make([]byte, 8*len(paths))
	for i, w := range paths {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	if err := os.WriteFile(input, buf, 0o644); err != nil {
		return nil, err
	}

	// Children run until the phase has lasted `seconds` with at least
	// minCleanUnits replays free of host steal, or maxStretch times as long.
	var (
		reports    []childReport
		setups     []float64
		setupSteal []float64
		dur        = time.Duration(seconds) * time.Second
	)
	start := time.Now()
	for cleanReplays := 0; len(reports) == 0 || time.Since(start) < dur ||
		(cleanReplays < minCleanUnits && time.Since(start) < time.Duration(float64(dur)*maxStretch)); {
		rep, setup, steal, err := runChild(ctx, input, len(reports), trace && len(reports) == 0)
		if err != nil {
			return nil, err
		}
		reports = append(reports, *rep)
		setups = append(setups, setup.Seconds())
		setupSteal = append(setupSteal, steal)
		if rep.ReplaySteal <= maxSteal {
			cleanReplays++
		}
	}

	ref, absErr, err := replayReference(f, paths, links)
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: metrics{}, samples: map[string]int{}}
	var rates, cpu, rss, replaySteal, onlineSteal []float64
	for _, rep := range reports {
		rates = append(rates, replaySnapshots/(float64(rep.ReplayNs)/1e9))
		cpu = append(cpu, float64(rep.CPUNs)/1e3/replaySnapshots)
		rss = append(rss, float64(rep.MaxRSSKiB)/1024)
		replaySteal = append(replaySteal, rep.ReplaySteal)
		onlineSteal = append(onlineSteal, rep.OnlineSteal)
		out.attempted += len(rep.Checkpoints)
		out.failed += wrongCheckpoints(rep.Checkpoints, ref)
	}
	setups, okSetup := keepCounted(setups, setupSteal)
	rates, okReplay := keepCounted(rates, replaySteal)
	cpu, _ = keepCounted(cpu, replaySteal)
	online, okOnline := counted(onlineSteal)
	var est, ing []float64
	for i, rep := range reports {
		if !online[i] {
			continue
		}
		for _, ns := range rep.EstimateNs {
			est = append(est, float64(ns)/1e6)
		}
		for _, ns := range rep.IngestNs {
			ing = append(ing, float64(ns)/1e6)
		}
	}
	if !okSetup || !okReplay || !okOnline {
		out.invalid = append(out.invalid, fmt.Sprintf("host CPU steal above %.0f%% in most of %d replays", 100*maxSteal, len(reports)))
	}
	m := out.e2e
	m.set("setup_s", median(setups), "s")
	m.set("snapshots_per_s", median(rates), "1/s")
	m.set("estimate_p50_ms", quantile(est, 0.5), "ms")
	m.set("estimate_p90_ms", quantile(est, 0.9), "ms")
	m.set("ingest_p50_ms", quantile(ing, 0.5), "ms")
	m.set("cpu_us_per_snapshot", median(cpu), "us")
	m.set("peak_rss_mib", median(rss), "MiB")
	m.set("mean_abs_error", mean(absErr), "1")
	out.samples["replays"] = len(reports)
	out.samples["replays_counted"] = len(rates)
	out.samples["setups_counted"] = len(setups)
	out.samples["estimates"] = len(est)
	out.samples["ingest_blocks"] = len(ing)
	out.diag = map[string][]float64{
		"estimate_ms_p50_p90_p95_p99": percentiles(est),
		"ingest_ms_p50_p90_p95_p99":   percentiles(ing),
	}
	if len(est) < 100 {
		out.invalid = append(out.invalid, fmt.Sprintf("%d estimates leave fewer than 10 beyond p90", len(est)))
	}
	if trace {
		out.layers = reports[0].Layers
		out.broken = reports[0].Broken
		var c checkpoint
		if len(reports[0].Checkpoints) > 0 {
			c = reports[0].Checkpoints[0]
		}
		coreCounts(out.layers, c.Eqs, c.Rank, f.numLinks, reports[0].Checkpoints)
		if err := replayServeLayers(ctx, out.layers, seed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runChild runs one replay child. Its setup time is launch until the plan
// is compiled, less the time the child spent reading its input.
func runChild(ctx context.Context, input string, index int, trace bool) (*childReport, time.Duration, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, 0, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--child", input, "--seed", fmt.Sprint(index), "--trace", tr)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, 0, err
	}
	ticks := readTicks()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	var (
		setup time.Duration
		steal float64
		last  []byte
	)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if sc.Text() == "ready" {
			setup = time.Since(start)
			steal = stealShare(ticks, readTicks())
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if err := cmd.Wait(); err != nil {
		return nil, 0, 0, fmt.Errorf("replay child: %w", err)
	}
	if setup == 0 {
		return nil, 0, 0, fmt.Errorf("replay child never became ready")
	}
	var rep childReport
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, 0, 0, fmt.Errorf("replay child report: %w", err)
	}
	return &rep, setup - time.Duration(rep.LoadNs), steal, nil
}

// replayChild is the system under test of replay-spill: it loads the
// input, compiles the plan eagerly, says "ready", replays the input
// through tomography.WindowedEstimateFunc on a spill window, then times
// appends and estimates one by one on a second spill window. With trace
// set it also runs the replay once more under spans.
func replayChild(input string, index int64, trace bool) error {
	f, err := loadFixture(replayFixture)
	if err != nil {
		return err
	}
	loadStart := time.Now()
	raw, err := os.ReadFile(input)
	if err != nil {
		return err
	}
	n := len(raw) / 8 / f.wpr
	rows := make([]*tomography.PathSet, n)
	for t := range rows {
		s := tomography.NewPathSet()
		for w := 0; w < f.wpr; w++ {
			for word := binary.LittleEndian.Uint64(raw[8*(t*f.wpr+w):]); word != 0; word &= word - 1 {
				s.Add(w*64 + bits.TrailingZeros64(word))
			}
		}
		rows[t] = s
	}
	rec := tomography.NewRecordFromRows(f.numPaths, rows)
	rep := &childReport{LoadNs: int64(time.Since(loadStart))}
	plan, err := tomography.Compile(f.top, tomography.PlanOptions{})
	if err != nil {
		return err
	}
	fmt.Println("ready")

	dir, err := os.MkdirTemp(filepath.Dir(input), "child-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := tomography.WindowConfig{Size: replayWindow, Plan: plan, Spill: spillConfig(filepath.Join(dir, "replay"))}
	ticks := readTicks()
	cpu0 := cpuTime()
	start := time.Now()
	err = tomography.WindowedEstimateFunc(f.top, rec, cfg, replayStride, func(p tomography.WindowPoint) error {
		rep.Checkpoints = append(rep.Checkpoints, checkpoint{
			T: p.T, Probs: append([]float64(nil), p.Result.CongestionProb...), Solver: string(p.Result.Linear.Solver),
			Eqs: len(p.Result.Linear.System.Equations), Rank: p.Result.Linear.System.Rank,
		})
		return nil
	})
	if err != nil {
		return err
	}
	rep.ReplayNs = int64(time.Since(start))
	rep.CPUNs = int64(cpuTime() - cpu0)
	rep.ReplaySteal = stealShare(ticks, readTicks())

	ticks = readTicks()
	if err := onlinePhase(f, rec, plan, filepath.Join(dir, "online"), index, rep); err != nil {
		return err
	}
	rep.OnlineSteal = stealShare(ticks, readTicks())
	if trace {
		if err := tracedReplay(f, rec, plan, filepath.Join(dir, "traced"), rep); err != nil {
			return err
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	rep.MaxRSSKiB = ru.Maxrss
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	return nil
}

// onlinePhase opens a second spill window and times what an online
// consumer of the same stream waits for: each 64-snapshot append, and each
// estimate once the window is full.
func onlinePhase(f *fixture, rec *tomography.Record, plan *tomography.Plan, dir string, index int64, rep *childReport) error {
	w, err := tomography.NewWindow(f.top, tomography.WindowConfig{Size: replayWindow, Plan: plan, Spill: spillConfig(dir)})
	if err != nil {
		return err
	}
	defer w.Close()
	row := tomography.NewPathSet()
	t := 0
	appendBlock := func() {
		start := time.Now()
		for end := t + onlineBlock; t < end; t++ {
			rec.Paths.RowInto(t, row)
			w.Observe(row)
		}
		rep.IngestNs = append(rep.IngestNs, int64(time.Since(start)))
	}
	for t < replayWindow {
		appendBlock()
	}
	// Estimates at evenly spaced points of the rest of the stream, shifted
	// per child, so a run samples the LP's cost over many window contents.
	step := (rec.Snapshots() - replayWindow) / onlineEstimates / onlineBlock * onlineBlock
	phase := int(index) * 7 * onlineBlock % step
	for e := 0; e < onlineEstimates; e++ {
		for end := replayWindow + phase + e*step; t < end; {
			appendBlock()
		}
		start := time.Now()
		if _, err := w.EstimateShared(); err != nil {
			return err
		}
		rep.EstimateNs = append(rep.EstimateNs, int64(time.Since(start)))
	}
	return nil
}

// tracedReplay runs the replay loop of WindowedEstimateFunc once more,
// with a span around every block of appends and every estimate, and
// decomposes each estimate into its layers. The replay's wall time must
// equal the sum of those spans within wallTolerance.
func tracedReplay(f *fixture, rec *tomography.Record, plan *tomography.Plan, dir string, rep *childReport) error {
	probe := newLayerProbe()
	lw, err := probe.newWindow(f.top)
	if err != nil {
		return err
	}
	lw.rounds = 10 // the replay has only four estimate points
	w, err := tomography.NewWindow(f.top, tomography.WindowConfig{Size: replayWindow, Plan: plan, Spill: spillConfig(dir)})
	if err != nil {
		return err
	}
	row := tomography.NewPathSet()
	n := rec.Snapshots()
	for t := 0; t < n; {
		begin, end := t, min(n, t+traceBlock)
		// End blocks on checkpoints, which are stride multiples.
		if next := (t/replayStride + 1) * replayStride; next < end {
			end = next
		}
		d := lw.timed("Window.Observe", lw.root, func() {
			for ; t < end; t++ {
				rec.Paths.RowInto(t, row)
				w.Observe(row)
			}
		})
		probe.appendNs += d
		probe.appendRows += end - begin
		if t >= replayWindow && (t%replayStride == 0 || t == n) {
			if _, err := lw.estimate(w, nil); err != nil {
				return err
			}
		}
	}
	lw.close()
	w.Close()
	m := metrics{}
	rep.Broken = probe.report(m)
	sealed, bytes := 0, int64(0)
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && d.Name() != "MANIFEST.json" {
			if info, err := d.Info(); err == nil {
				sealed++
				bytes += info.Size()
			}
		}
		return nil
	})
	m.set("segstore.sealed_segments", float64(sealed), "count")
	m.set("segstore.spilled_mib", float64(bytes)/(1<<20), "MiB")
	compile, err := compileMs([]*tomography.Topology{f.top}, 5)
	if err != nil {
		return err
	}
	m.set("plan.compile_ms", median(compile), "ms")
	m.set("trace.overhead_frac", float64(spanCost())*float64(len(probe.tr.spans))/float64(probe.loopWall), "1")
	rep.Layers = m
	return probe.tr.write(traceDir, fmt.Sprintf("trace-replay-%d.json", os.Getpid()))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// replayReference replays the same rows through a RAM-backed facade
// window, whose estimates the spill window's must equal bit for bit, and
// scores them against the generator's realized link congestion in each
// checkpoint window.
func replayReference(f *fixture, paths, links []uint64) ([]checkpoint, []float64, error) {
	w, err := tomography.NewWindow(f.top, tomography.WindowConfig{Size: replayWindow})
	if err != nil {
		return nil, nil, err
	}
	defer w.Close()
	tr := newTruth(f.numLinks, f.lwpr)
	var (
		out    []checkpoint
		absErr []float64
	)
	for t := 0; t < replaySnapshots; t++ {
		w.ObserveBatchWords(paths[t*f.wpr:(t+1)*f.wpr], f.wpr, 1)
		tr.add(links[t*f.lwpr:(t+1)*f.lwpr], 1)
		if t >= replayWindow {
			tr.add(links[(t-replayWindow)*f.lwpr:(t-replayWindow+1)*f.lwpr], -1)
		}
		if t+1 < replayWindow || ((t+1)%replayStride != 0 && t != replaySnapshots-1) {
			continue
		}
		res, err := w.EstimateShared()
		if err != nil {
			return nil, nil, err
		}
		out = append(out, checkpoint{T: t, Probs: append([]float64(nil), res.CongestionProb...)})
		absErr = append(absErr, tr.absError(res.CongestionProb))
	}
	return out, absErr, nil
}

// wrongCheckpoints counts the child's checkpoints that are missing, extra,
// or not bit-identical to the reference.
func wrongCheckpoints(got, ref []checkpoint) int {
	wrong := 0
	for i, c := range ref {
		if i >= len(got) || got[i].T != c.T || !sameProbs(got[i].Probs, c.Probs) {
			wrong++
		}
	}
	if len(got) > len(ref) {
		wrong += len(got) - len(ref)
	}
	return wrong
}

// replayServeLayers measures the serve layer for replay-spill, which has
// none of its own: a 2-second closed-loop binary ingest run against tomod
// on the replay topology, so that every serve.* metric is defined on every
// workload.
func replayServeLayers(ctx context.Context, m metrics, seed int64) error {
	spec := serveSpec{
		fixtures: []string{replayFixture}, window: 4096, ctype: ctypeBinary,
		estimateRate: ingestEstimateRate, streamLen: 1 << 16, setups: 1,
	}
	loads, err := buildServeLoad(spec, seed)
	if err != nil {
		return err
	}
	run, err := runServe(ctx, spec, loads, 2)
	if err != nil {
		return err
	}
	probe := newLayerProbe()
	if _, err := checkServe(spec, loads, run, probe); err != nil {
		return err
	}
	return serveOnlyLayers(m, spec, loads, run, probe)
}
