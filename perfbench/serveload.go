package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	tomography "repro"
)

// serveSpec is one daemon workload: the tenants, their window, the wire
// format, and the offered load. ingestRate 0 means a closed ingest loop.
type serveSpec struct {
	fixtures     []string
	window       int
	ctype        string
	ingestRate   float64 // batches/s, open loop; 0 = closed loop
	estimateRate float64 // estimates/s, open loop
	streamLen    int     // snapshots generated per tenant; ingest cycles over them
	setups       int     // daemon launches timed for setup_s
}

const (
	batchRows  = 64
	retryPause = time.Millisecond // pause before re-sending a 429-refused batch
)

// tenantLoad is one tenant's generated stream, pre-encoded so that no
// encoding competes with the daemon for CPU while it is being measured.
type tenantLoad struct {
	name    string
	f       *fixture
	paths   []uint64 // streamLen packed path rows
	links   []uint64 // the matching ground-truth link rows
	batches []batch  // batch k carries rows [k*64, (k+1)*64)
	next    int      // ingest position in batches, counting cycles
}

func (t *tenantLoad) batchAt(k int) batch { return t.batches[k%len(t.batches)] }

// rowsAt returns the packed path and link rows of batch k.
func (t *tenantLoad) rowsAt(k int) (paths, links []uint64) {
	k %= len(t.batches)
	pw, lw := batchRows*t.f.wpr, batchRows*t.f.lwpr
	return t.paths[k*pw : (k+1)*pw], t.links[k*lw : (k+1)*lw]
}

func buildServeLoad(spec serveSpec, seed int64) ([]*tenantLoad, error) {
	var out []*tenantLoad
	for i, name := range spec.fixtures {
		f, err := loadFixture(name)
		if err != nil {
			return nil, err
		}
		t := &tenantLoad{name: fmt.Sprintf("bench%d", i), f: f}
		t.paths, t.links = newMarkov(f, uint64(seed)*1000003+uint64(i)).stream(spec.streamLen)
		for k := 0; k < spec.streamLen/batchRows; k++ {
			rows := t.paths[k*batchRows*f.wpr : (k+1)*batchRows*f.wpr]
			if spec.ctype == ctypeBinary {
				t.batches = append(t.batches, encodeBinary(rows, f.wpr, batchRows, f.numPaths))
			} else {
				t.batches = append(t.batches, encodeJSON(rows, f.wpr, batchRows))
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// op is one client operation as the harness saw it. Times are offsets from
// the start of the timed phase; sched is when the open-loop schedule had
// it due (equal to start in a closed loop).
type op struct {
	tenant  int
	sched   time.Duration
	start   time.Duration
	end     time.Duration
	refused int // 429 answers before acceptance
	err     error
	reply   estimateReply
}

// serveRun is everything one daemon workload run measured.
type serveRun struct {
	setups     []float64 // seconds
	setupSteal []float64
	ingests    []op
	estimates  []op // timed phase
	warm       []op // the one estimate per tenant that ends setup
	timedRows  int64
	drain      time.Duration // last ingest reply → every accepted row applied
	hwmKiB     int64
	views      int64 // views published during the timed phase
	dials      int32
	lateness   []time.Duration
	slices     *slicer
}

// runServe drives one daemon workload: setup (timed spec.setups times on
// fresh daemons), the timed phase, the drain, and the daemon's shutdown.
// The checks run afterwards, off the clock.
func runServe(ctx context.Context, spec serveSpec, loads []*tenantLoad, seconds int) (*serveRun, error) {
	run := &serveRun{}
	var (
		d        *daemon
		ing, est *client
		dials    atomic.Int32
		err      error
	)
	// Setups on a host that stole CPU meanwhile are repeated, up to twice
	// the planned number.
	for clean := 0; clean < spec.setups && len(run.setups) < 2*spec.setups; {
		if d != nil {
			d.stop()
			ing.close()
			est.close()
		}
		dials.Store(0)
		for _, t := range loads {
			t.next = 0
		}
		ticks := readTicks()
		start := time.Now()
		if d, err = startDaemon(ctx); err != nil {
			return nil, err
		}
		ing, est = newClient(d.base, &dials), newClient(d.base, &dials)
		if run.warm, err = setupTenants(spec, loads, ing, est); err != nil {
			d.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		run.setups = append(run.setups, time.Since(start).Seconds())
		steal := stealShare(ticks, readTicks())
		run.setupSteal = append(run.setupSteal, steal)
		if steal <= maxSteal {
			clean++
		}
	}
	defer func() {
		d.stop()
		ing.close()
		est.close()
	}()

	var applied int64
	for _, t := range loads {
		applied += int64(t.next * batchRows)
	}
	views0, err := est.metric("tomod_views_published_total")
	if err != nil {
		return nil, err
	}

	// The phase runs until it has `seconds` clean one-second slices, or for
	// maxStretch times as long at most.
	t0 := time.Now()
	run.slices = startSlicer(t0, d.cmd.Process.Pid, seconds, time.Duration(float64(seconds)*maxStretch*float64(time.Second)))
	var wg sync.WaitGroup
	var ingErr, estErr error
	sendBatch := func(o *op) {
		t := loads[o.tenant]
		o.refused, o.err = ing.ingestRetry(t.name, t.batchAt(t.next), retryPause)
		t.next++
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		if spec.ingestRate > 0 {
			run.ingests, ingErr = openLoop(t0, run.slices.over, spec.ingestRate, len(loads), sendBatch)
		} else {
			run.ingests, ingErr = closedLoop(t0, run.slices.over, len(loads), sendBatch)
		}
		if ingErr != nil {
			return
		}
		// The drain is timed on the now idle ingest connection, so it does
		// not wait for the estimate stream to finish.
		var lastReply time.Duration
		for _, o := range run.ingests {
			run.timedRows += batchRows
			lastReply = max(lastReply, o.end)
		}
		ingErr = ing.waitApplied(applied + run.timedRows)
		run.drain = time.Since(t0) - lastReply
	}()
	go func() {
		defer wg.Done()
		run.estimates, estErr = openLoop(t0, run.slices.over, spec.estimateRate, len(loads), func(o *op) {
			o.reply, o.err = est.estimate(loads[o.tenant].name)
		})
	}()
	wg.Wait()
	run.slices.wait()
	if ingErr != nil {
		return nil, ingErr
	}
	if estErr != nil {
		return nil, estErr
	}

	after, err := sampleProc(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	run.hwmKiB = after.hwmKiB
	views1, err := est.metric("tomod_views_published_total")
	if err != nil {
		return nil, err
	}
	run.views = views1 - views0
	run.dials = dials.Load()
	run.lateness = lateness(run.estimates)
	if spec.ingestRate > 0 {
		run.lateness = append(run.lateness, lateness(run.ingests)...)
	}
	return run, nil
}

// setupTenants registers every tenant from its fixture, fills its window
// through the ingest API, and waits for one estimate per tenant.
func setupTenants(spec serveSpec, loads []*tenantLoad, ing, est *client) ([]op, error) {
	for _, t := range loads {
		if err := ing.register(t.name, t.f.doc, spec.window); err != nil {
			return nil, err
		}
	}
	for k := 0; k < spec.window/batchRows; k++ {
		for _, t := range loads {
			if _, err := ing.ingestRetry(t.name, t.batchAt(t.next), retryPause); err != nil {
				return nil, err
			}
			t.next++
		}
	}
	var ops []op
	for i, t := range loads {
		r, err := est.estimate(t.name)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{tenant: i, reply: r})
	}
	return ops, nil
}

// openLoop issues ops at a fixed rate, round-robin over n tenants, until
// the phase is over. An op that comes due while the previous one is still
// outstanding is sent as soon as the connection frees, and its latency
// still counts from its scheduled time.
func openLoop(t0 time.Time, over func(time.Duration) bool, rate float64, n int, send func(*op)) ([]op, error) {
	period := time.Duration(float64(time.Second) / rate)
	var ops []op
	for i := 0; ; i++ {
		sched := time.Duration(i) * period
		if wait := sched - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		if over(sched) {
			return ops, nil
		}
		o := op{tenant: i % n, sched: sched, start: time.Since(t0)}
		send(&o)
		o.end = time.Since(t0)
		ops = append(ops, o)
		if o.err != nil {
			return ops, o.err
		}
	}
}

// closedLoop issues the next op as soon as the previous one completes,
// round-robin over n tenants, until the phase is over.
func closedLoop(t0 time.Time, over func(time.Duration) bool, n int, send func(*op)) ([]op, error) {
	var ops []op
	for i := 0; !over(time.Since(t0)); i++ {
		o := op{tenant: i % n, start: time.Since(t0)}
		o.sched = o.start
		send(&o)
		o.end = time.Since(t0)
		ops = append(ops, o)
		if o.err != nil {
			return ops, o.err
		}
	}
	return ops, nil
}

// lateness is how late the open-loop generator sent each op: the gap
// between the op becoming sendable (due, and the connection free) and its
// send. It measures the harness, not the daemon.
func lateness(ops []op) []time.Duration {
	var out []time.Duration
	prevEnd := time.Duration(0)
	for _, o := range ops {
		ready := o.sched
		if prevEnd > ready {
			ready = prevEnd
		}
		out = append(out, o.start-ready)
		prevEnd = o.end
	}
	return out
}

// serveCheck is the outcome of checking one run's estimates.
type serveCheck struct {
	wrong  int
	absErr []float64    // per estimate, against the generator's truth
	points []checkpoint // solver kind of each distinct reference estimate
	eqs    int
	rank   int
	links  int
}

// checkServe replays every tenant's ingested stream through a facade
// Window of the same size and compares each daemon estimate, bit for bit,
// with the window's estimate after the same number of snapshots. It also
// scores each estimate against the realized link congestion of its window.
// With probe set, it takes the per-layer measurements on the same rows.
func checkServe(spec serveSpec, loads []*tenantLoad, run *serveRun, probe *layerProbe) (*serveCheck, error) {
	all := append(append([]op(nil), run.warm...), run.estimates...)
	wanted := make([]map[int][]int, len(loads)) // tenant → seen → indices into all
	for i := range wanted {
		wanted[i] = map[int][]int{}
	}
	for k, o := range all {
		wanted[o.tenant][o.reply.SnapshotsSeen] = append(wanted[o.tenant][o.reply.SnapshotsSeen], k)
	}
	var (
		mu    sync.Mutex
		out   = &serveCheck{}
		first error
		wg    sync.WaitGroup
		sem   = make(chan struct{}, 2)
	)
	for i, t := range loads {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t *tenantLoad) {
			defer wg.Done()
			defer func() { <-sem }()
			c, err := checkTenant(spec, t, wanted[i], all, probe)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && first == nil {
				first = err
			}
			if c == nil {
				return
			}
			out.wrong += c.wrong
			out.absErr = append(out.absErr, c.absErr...)
			out.points = append(out.points, c.points...)
			out.eqs, out.rank, out.links = c.eqs, c.rank, c.links
		}(i, t)
	}
	wg.Wait()
	return out, first
}

func checkTenant(spec serveSpec, t *tenantLoad, wanted map[int][]int, all []op, probe *layerProbe) (*serveCheck, error) {
	var seens []int
	for s := range wanted {
		seens = append(seens, s)
	}
	sort.Ints(seens)
	// An eager plan keeps compile time out of the first reference estimate;
	// eager and lazy plans estimate bit-identically.
	plan, err := tomography.Compile(t.f.top, tomography.PlanOptions{})
	if err != nil {
		return nil, err
	}
	w, err := tomography.NewWindow(t.f.top, tomography.WindowConfig{Size: spec.window, Plan: plan})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	var lw *layerWindow
	if probe != nil {
		if lw, err = probe.newWindow(t.f.top); err != nil {
			return nil, err
		}
		defer lw.close()
	}
	tr := newTruth(t.f.numLinks, t.f.lwpr)
	c := &serveCheck{}
	for k, next := 0, 0; next < len(seens); k++ {
		paths, links := t.rowsAt(k)
		if lw != nil {
			lw.observe(w, paths, t.f.wpr, batchRows)
		} else {
			w.ObserveBatchWords(paths, t.f.wpr, batchRows)
		}
		slide := func() {
			for r := 0; r < batchRows; r++ {
				tr.add(links[r*t.f.lwpr:(r+1)*t.f.lwpr], 1)
				if tr.rows > spec.window {
					_, old := t.rowsAt(k - spec.window/batchRows)
					tr.add(old[r*t.f.lwpr:(r+1)*t.f.lwpr], -1)
				}
			}
		}
		if lw != nil {
			lw.timed("harness.truth", lw.root, slide)
		} else {
			slide()
		}
		if w.Seen() < seens[next] {
			continue
		}
		if w.Seen() > seens[next] {
			return c, fmt.Errorf("tenant %s: estimate at %d snapshots is not on a batch boundary", t.name, seens[next])
		}
		var res *tomography.EstimateResult
		if lw != nil {
			var clientMs []float64
			for _, idx := range wanted[seens[next]] {
				if o := all[idx]; o.end > 0 { // setup's estimates carry no timing
					clientMs = append(clientMs, ms(o.end-o.start))
				}
			}
			res, err = lw.estimate(w, clientMs)
		} else {
			res, err = w.EstimateShared()
		}
		if err != nil {
			return c, err
		}
		for _, idx := range wanted[seens[next]] {
			got := all[idx].reply.CongestionProb
			if !sameProbs(got, res.CongestionProb) {
				c.wrong++
				continue
			}
			c.absErr = append(c.absErr, tr.absError(got))
		}
		c.eqs, c.rank, c.links = len(res.Linear.System.Equations), res.Linear.System.Rank, t.f.numLinks
		c.points = append(c.points, checkpoint{Solver: string(res.Linear.Solver)})
		next++
	}
	return c, nil
}

// sameProbs reports whether a daemon estimate is bit-identical to the
// reference and every probability is finite and in [0, 1].
func sameProbs(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, p := range got {
		if math.IsNaN(p) || p < 0 || p > 1 || math.Float64bits(p) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Offered load of the serve workloads, sized on a 2-CPU machine to keep
// the daemon about half busy (serve-mixed) and to leave the ingest path
// the bottleneck (serve-ingest).
const (
	mixedIngestRate    = 400.0 // batches of 64 per second
	mixedEstimateRate  = 12.0  // estimates per second
	ingestEstimateRate = 6.0   // estimates per second
	maxLatenessMs      = 5.0   // open-loop generator lateness p99 beyond which a run is invalid
)

func serveWorkload(ctx context.Context, spec serveSpec, seed int64, seconds int, trace bool) (*outcome, error) {
	loads, err := buildServeLoad(spec, seed)
	if err != nil {
		return nil, err
	}
	run, err := runServe(ctx, spec, loads, seconds)
	if err != nil {
		return nil, err
	}
	var probe *layerProbe
	if trace {
		probe = newLayerProbe()
	}
	chk, err := checkServe(spec, loads, run, probe)
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: metrics{}, samples: map[string]int{}}
	serveEndToEnd(out, spec, run, chk)
	if trace {
		if err := serveLayers(out, spec, loads, run, chk, probe); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveEndToEnd turns one daemon run into the end-to-end metrics, the
// operation counts and the validity verdict.
func serveEndToEnd(out *outcome, spec serveSpec, run *serveRun, chk *serveCheck) {
	sl := run.slices
	var estLat, ingLat []float64
	for _, o := range run.estimates {
		if sl.counts(o.sched) {
			estLat = append(estLat, ms(o.end-o.sched))
		}
	}
	refused, rows, cpu := 0, 0, time.Duration(0)
	for _, o := range run.ingests {
		if sl.counts(o.sched) {
			ingLat = append(ingLat, ms(o.end-o.sched))
			rows += batchRows
		}
		refused += o.refused
	}
	secs := 0
	for k := range sl.keep {
		if sl.keep[k] {
			secs++
			cpu += sl.cpu[k]
		}
	}
	setups, cleanSetups := keepCounted(run.setups, run.setupSteal)
	m := out.e2e
	m.set("setup_s", median(setups), "s")
	// The drain is the backlog left when the phase ended: adding it keeps
	// queued work from counting as throughput.
	m.set("snapshots_per_s", float64(rows)/(float64(secs)+run.drain.Seconds()), "1/s")
	m.set("estimate_p50_ms", quantile(estLat, 0.5), "ms")
	m.set("estimate_p90_ms", quantile(estLat, 0.9), "ms")
	m.set("ingest_p50_ms", quantile(ingLat, 0.5), "ms")
	m.set("cpu_us_per_snapshot", float64(cpu.Microseconds())/float64(rows), "us")
	m.set("peak_rss_mib", float64(run.hwmKiB)/1024, "MiB")
	m.set("mean_abs_error", mean(chk.absErr), "1")

	out.attempted = len(run.warm) + len(run.estimates) + len(run.ingests)
	out.failed = chk.wrong
	out.samples["setups"] = len(run.setups)
	out.samples["setups_counted"] = len(setups)
	out.samples["slices"] = len(sl.steal)
	out.samples["slices_clean"] = sl.cleanCount()
	out.samples["estimates"] = len(estLat)
	out.samples["ingests"] = len(ingLat)
	out.samples["ingest_refused_429"] = refused
	out.samples["connections"] = int(run.dials)
	out.diag = map[string][]float64{
		"estimate_ms_p50_p90_p95_p99": percentiles(estLat),
		"ingest_ms_p50_p90_p95_p99":   percentiles(ingLat),
	}

	if !cleanSetups || !sl.clean {
		out.invalid = append(out.invalid, fmt.Sprintf("host CPU steal above %.0f%% in most of %d slices or %d setups",
			100*maxSteal, len(sl.steal), len(run.setups)))
	}
	if nproc := runtime.NumCPU(); int(run.dials) > nproc {
		out.invalid = append(out.invalid, fmt.Sprintf("%d connections exceed nproc %d", run.dials, nproc))
	}
	late := durationsMs(run.lateness)
	if p := quantile(late, 0.99); p > maxLatenessMs {
		out.invalid = append(out.invalid, fmt.Sprintf("open-loop generator lateness p99 %.2f ms exceeds %.0f ms", p, maxLatenessMs))
	}
	if n := len(run.estimates); n > 0 && run.estimates[n-1].start-run.estimates[n-1].sched > time.Second {
		out.invalid = append(out.invalid, "estimate stream fell more than 1 s behind its schedule")
	}
	if n := len(run.ingests); spec.ingestRate > 0 && n > 0 && run.ingests[n-1].start-run.ingests[n-1].sched > time.Second {
		out.invalid = append(out.invalid, "ingest stream fell more than 1 s behind its schedule")
	}
	if len(estLat) < 100 {
		out.invalid = append(out.invalid, fmt.Sprintf("%d estimates leave fewer than 10 beyond p90", len(estLat)))
	}
}

// serveLayers fills the per-layer metrics of a traced daemon run.
func serveLayers(out *outcome, spec serveSpec, loads []*tenantLoad, run *serveRun, chk *serveCheck, probe *layerProbe) error {
	m := metrics{}
	out.layers = m
	if err := serveOnlyLayers(m, spec, loads, run, probe); err != nil {
		return err
	}
	out.broken = probe.report(m)
	var tops []*tomography.Topology
	for _, t := range loads {
		tops = append(tops, t.f.top)
	}
	compile, err := compileMs(tops, 3)
	if err != nil {
		return err
	}
	m.set("plan.compile_ms", median(compile), "ms")
	coreCounts(m, chk.eqs, chk.rank, chk.links, chk.points)
	m.set("segstore.sealed_segments", 0, "count")
	m.set("segstore.spilled_mib", 0, "MiB")
	m.set("trace.overhead_frac", float64(spanCost())*float64(len(probe.tr.spans))/float64(probe.loopWall), "1")
	return probe.tr.write(traceDir, fmt.Sprintf("trace-%d.json", os.Getpid()))
}
