package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	tomography "repro"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/measure"
	"repro/internal/serve"
)

// Tolerances of the traced run's reconciliation checks: the layer spans
// must account for their parent's wall time to within these shares. A
// failure means the decomposition no longer matches the code.
const (
	estimateTolerance = 0.15 // WindowView.EstimateIn vs pair count + fill + L1
	wallTolerance     = 0.10 // a replay loop's wall vs the sum of its spans
)

// span is one timed call at a layer boundary. Req groups the spans of one
// request (an estimate, a replay); Parent is the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span; close it with tracer.close.
func (t *tracer) open(name string, parent, req int) span {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	t.mu.Unlock()
	return span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}
}

// close ends s and returns its duration.
func (t *tracer) close(s span) time.Duration {
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[s.ID-1] = s
	t.mu.Unlock()
	return time.Duration(s.End - s.Start)
}

func (t *tracer) newReq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// spanCost measures what recording one span costs, so the run can report
// the share of its traced time that tracing itself took.
func spanCost() time.Duration {
	t := newTracer()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.close(t.open("probe", 0, 0))
	}
	return time.Since(start) / n
}

// write dumps every span as JSON into dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// layerProbe measures the layers under one run's end-to-end numbers by
// calling each layer's public entry point on the same rows: window appends
// and views (the facade), the estimate and its decomposition into pair
// count (measure), equation fill (core) and L1 solve (lp).
type layerProbe struct {
	tr *tracer

	mu           sync.Mutex
	appendNs     time.Duration
	appendRows   int
	viewUs       []float64
	estimateMs   []float64
	pairMs       []float64
	fillMs       []float64
	l1Ms         []float64
	overheadMs   []float64
	sumEstimate  time.Duration
	sumParts     time.Duration
	loopWall     time.Duration
	loopChildren time.Duration
}

func newLayerProbe() *layerProbe { return &layerProbe{tr: newTracer()} }

// layerWindow is one tenant's probe state: the compiled linear structure
// the correlation estimator uses, its pair list, and private workspaces
// and recycled views.
type layerWindow struct {
	p      *layerProbe
	st     *core.Structure
	pairs  []measure.Pair
	ws     *tomography.Workspace
	coreWS *core.Workspace
	lpWS   lp.Workspace
	views  [2]*tomography.WindowView
	rounds int // estimate decompositions per estimate point
	root   span
	kids   time.Duration
}

func (p *layerProbe) newWindow(top *tomography.Topology) (*layerWindow, error) {
	lin, err := core.CompileLinear(top, false, core.Options{}.Normalized())
	if err != nil {
		return nil, err
	}
	lw := &layerWindow{p: p, st: lin.Structure(), ws: tomography.NewWorkspace(), coreWS: core.NewWorkspace(), rounds: 1}
	for _, c := range lw.st.Candidates() {
		if c.Pair {
			lw.pairs = append(lw.pairs, measure.Pair{A: int(c.Paths[0]), B: int(c.Paths[1])})
		}
	}
	lw.root = p.tr.open("replay", 0, p.tr.newReq())
	return lw, nil
}

// close ends the tenant's replay span and books its wall time against the
// time its child spans account for.
func (lw *layerWindow) close() {
	wall := lw.p.tr.close(lw.root)
	for _, v := range lw.views {
		if v != nil {
			v.Close()
		}
	}
	lw.p.mu.Lock()
	lw.p.loopWall += wall
	lw.p.loopChildren += lw.kids
	lw.p.mu.Unlock()
}

func (lw *layerWindow) timed(name string, parent span, fn func()) time.Duration {
	s := lw.p.tr.open(name, parent.ID, parent.Req)
	fn()
	d := lw.p.tr.close(s)
	if parent.ID == lw.root.ID {
		lw.kids += d
	}
	return d
}

// observe appends one batch through Window.ObserveBatchWords under a span.
func (lw *layerWindow) observe(w *tomography.Window, rows []uint64, wpr, n int) {
	d := lw.timed("Window.ObserveBatchWords", lw.root, func() { w.ObserveBatchWords(rows, wpr, n) })
	lw.p.mu.Lock()
	lw.p.appendNs += d
	lw.p.appendRows += n
	lw.p.mu.Unlock()
}

// estimate runs the window's estimate on a fresh view and decomposes it on
// a second fresh view: Empirical.PrimePairs (pair count), then
// Structure.EvaluateIn on the primed view (equation fill) and the L1 LP on
// the filled system. clientMs are the client-observed latencies of the daemon
// estimates served at this point; their excess over EstimateIn is the
// serving overhead.
func (lw *layerWindow) estimate(w *tomography.Window, clientMs []float64) (*tomography.EstimateResult, error) {
	root := lw.p.tr.open("estimate", lw.root.ID, lw.p.tr.newReq())
	var (
		res *tomography.EstimateResult
		err error
		sys *core.EquationSystem
	)
	view := lw.timed("Window.View", root, func() { lw.views[0] = w.View(lw.views[0]) })
	est := lw.timed("WindowView.EstimateIn", root, func() { res, err = lw.views[0].EstimateIn(lw.ws) })
	if err != nil {
		return nil, err
	}
	// The decomposition reads a fresh view, so no cache from the estimate
	// above shortens it. Further rounds repeat the estimate and its
	// decomposition when a run has few estimate points.
	var pair, fill, l1 time.Duration
	for r := 0; r < lw.rounds; r++ {
		if r > 0 {
			lw.views[0] = w.View(lw.views[0])
			est += lw.timed("WindowView.EstimateIn", root, func() { _, err = lw.views[0].EstimateIn(lw.ws) })
			if err != nil {
				return nil, err
			}
		}
		// Pair count on a fresh view, then the fill on the same view, whose
		// pair cache the count has just primed.
		lw.views[1] = w.View(lw.views[1])
		pair += lw.timed("Empirical.PrimePairs", root, func() { lw.views[1].Source().PrimePairs(lw.pairs) })
		fill += lw.timed("Structure.EvaluateIn", root, func() { sys, err = lw.st.EvaluateIn(lw.coreWS, lw.views[1].Source()) })
		if err != nil {
			return nil, err
		}
		a, y := sys.Matrix()
		// An LP failure is the estimator's min-norm fallback, counted from
		// the estimate's solver kind; the probe only times the attempt.
		l1 += lw.timed("lp.MinimizeL1ResidualNonPositive", root, func() { lw.lpWS.MinimizeL1ResidualNonPositive(a, y) })
	}
	lw.kids += lw.p.tr.close(root)
	p := lw.p
	n := time.Duration(lw.rounds)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.viewUs = append(p.viewUs, float64(view)/float64(time.Microsecond))
	p.estimateMs = append(p.estimateMs, ms(est/n))
	p.pairMs = append(p.pairMs, ms(pair/n))
	p.fillMs = append(p.fillMs, ms(fill/n))
	p.l1Ms = append(p.l1Ms, ms(l1/n))
	p.sumEstimate += est
	p.sumParts += pair + fill + l1
	for _, c := range clientMs {
		p.overheadMs = append(p.overheadMs, c-ms(est/n))
	}
	return res, nil
}

// report fills the per-layer metrics the probe measured and returns the
// reconciliation failures, if any.
func (p *layerProbe) report(m metrics) []string {
	var bad []string
	m.set("window.append_ns_per_snapshot", float64(p.appendNs)/float64(max(p.appendRows, 1)), "ns")
	m.set("window.view_us", median(p.viewUs), "us")
	m.set("window.estimate_ms", median(p.estimateMs), "ms")
	m.set("measure.pair_count_ms", median(p.pairMs), "ms")
	m.set("core.fill_ms", median(p.fillMs), "ms")
	m.set("lp.l1_ms", median(p.l1Ms), "ms")
	estRes := float64(p.sumEstimate-p.sumParts) / float64(p.sumEstimate)
	wallRes := float64(p.loopWall-p.loopChildren) / float64(p.loopWall)
	m.set("trace.estimate_unexplained_frac", estRes, "1")
	m.set("trace.wall_unexplained_frac", wallRes, "1")
	if math.Abs(estRes) > estimateTolerance {
		bad = append(bad, fmt.Sprintf("EstimateIn is %.1f%% away from pair count + fill + L1 (tolerance %.0f%%)", 100*estRes, 100*estimateTolerance))
	}
	if math.Abs(wallRes) > wallTolerance {
		bad = append(bad, fmt.Sprintf("replay wall is %.1f%% away from the sum of its spans (tolerance %.0f%%)", 100*wallRes, 100*wallTolerance))
	}
	return bad
}

// compileMs times eager tomography.Compile on each topology.
func compileMs(tops []*tomography.Topology, reps int) ([]float64, error) {
	var out []float64
	for r := 0; r < reps; r++ {
		for _, top := range tops {
			start := time.Now()
			if _, err := tomography.Compile(top, tomography.PlanOptions{}); err != nil {
				return nil, err
			}
			out = append(out, ms(time.Since(start)))
		}
	}
	return out, nil
}

// ingestWireUs times in-process Daemon.IngestWire — decode, validation and
// the shard-queue hand-off — per batch, for the given encoded batches. A
// batch refused by backpressure is retried after a pause and only the
// accepted call is timed.
func ingestWireUs(f *fixture, window int, batches []batch) ([]float64, error) {
	d := serve.New(serve.Config{})
	defer d.Shutdown(context.Background())
	if _, err := d.Register(serve.TenantConfig{Name: "probe", Topology: f.doc, Window: window}); err != nil {
		return nil, err
	}
	var out []float64
	for _, b := range batches {
		for {
			start := time.Now()
			_, err := d.IngestWire("probe", b.body, b.ctype)
			took := time.Since(start)
			if errors.Is(err, serve.ErrBackpressure) {
				time.Sleep(retryPause)
				continue
			}
			if err != nil {
				return nil, err
			}
			out = append(out, float64(took)/float64(time.Microsecond))
			break
		}
	}
	return out, nil
}

// serveOnlyLayers fills the serve.* metrics of a daemon run and the
// harness's own lateness.
func serveOnlyLayers(m metrics, spec serveSpec, loads []*tenantLoad, run *serveRun, probe *layerProbe) error {
	var rtt []float64
	refused := 0
	for _, o := range run.ingests {
		rtt = append(rtt, ms(o.end-o.start))
		refused += o.refused
	}
	m.set("serve.ingest_rtt_p50_ms", median(rtt), "ms")
	m.set("serve.ingest_429_frac", float64(refused)/float64(refused+len(run.ingests)), "1")
	m.set("serve.drain_ms", ms(run.drain), "ms")
	m.set("serve.views_published", float64(run.views), "count")
	m.set("serve.estimate_overhead_p50_ms", median(probe.overheadMs), "ms")
	m.set("gen.lateness_p99_ms", quantile(durationsMs(run.lateness), 0.99), "ms")
	f := loads[0].f
	for _, ctype := range []string{ctypeJSON, ctypeBinary} {
		var batches []batch
		for k := 0; k < 256; k++ {
			rows, _ := loads[0].rowsAt(k)
			if ctype == ctypeJSON {
				batches = append(batches, encodeJSON(rows, f.wpr, batchRows))
			} else {
				batches = append(batches, encodeBinary(rows, f.wpr, batchRows, f.numPaths))
			}
		}
		us, err := ingestWireUs(f, spec.window, batches)
		if err != nil {
			return err
		}
		name := "serve.ingestwire_json_us_per_batch"
		if ctype == ctypeBinary {
			name = "serve.ingestwire_binary_us_per_batch"
		}
		m.set(name, median(us), "us")
	}
	return nil
}

// coreCounts fills the equation-system counts and the solver tallies.
func coreCounts(m metrics, eqs, rank, links int, points []checkpoint) {
	l1, fallback := 0, 0
	for _, p := range points {
		switch p.Solver {
		case "l1":
			l1++
		case "min-norm":
			fallback++
		}
	}
	m.set("core.equations", float64(eqs), "count")
	m.set("core.rank", float64(rank), "count")
	m.set("core.links", float64(links), "count")
	m.set("core.l1_solves", float64(l1), "count")
	m.set("core.minnorm_fallbacks", float64(fallback), "count")
}
