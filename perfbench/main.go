// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for one seed, checks every output, and prints each metric
// by name with its unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The line before it is the full record: workload, seed, machine block,
// validity, sample counts and every metric of both kinds.
//
// Run it from the repository root through the wrapper, which builds
// cmd/tomod and this package from source first:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare base.txt new.txt
//
// Workloads:
//
//   - serve-mixed: a tomod daemon (default configuration, own process,
//     loopback) serving 4 tenants on 4 diurnal-class topologies, window
//     256, JSON wire. Ingest (batches of 64, one connection, round-robin
//     over the tenants) and estimates (second connection) are both open
//     loops at fixed rates that keep the daemon under half busy on 2 CPUs,
//     so queueing does not amplify noise from the host. Almost all the
//     work is the estimate path: count, fill, L1 LP.
//   - serve-ingest: the same daemon with 2 tenants (one per shard) and
//     window 65536, binary wire. Ingest is a closed loop that retries 429s
//     after a pause, as a backpressured collector does; estimates run at a
//     low fixed rate. Decode, queue, append and view publication dominate.
//   - replay-spill: tomography.WindowedEstimateFunc in a child process with
//     an eagerly compiled plan, replaying 400000 snapshots of a
//     diurnal-week-class topology through a spill window (window 262144,
//     segments of 65536 rows, stride 65536). No serve layer; append and
//     segment spill dominate. Each child then times 64-row appends and
//     estimates one by one on a second spill window, for the latency
//     metrics.
//
// Every workload reports every end-to-end metric; mean_abs_error scores
// each estimate against the generator's realized link congestion in its
// window. The untraced run (--trace 0) reaches the system only through the
// tomod HTTP API and the repro facade. The traced run (--trace 1) repeats it and
// then measures the layers — serve, window, plan, core, measure, lp,
// segstore — with calls into them on the same rows, records spans, and
// checks that the layer times add up to the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// machine describes where a result was measured.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	CPUModel   string `json:"cpu_model"`
}

// record is the full result of one run, printed on the line before the
// result; --compare reads these.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Machine  machine        `json:"machine"`
	Valid    bool           `json:"valid"`
	Invalid  []string       `json:"invalid,omitempty"`
	Samples  map[string]int `json:"samples"`
	EndToEnd metrics        `json:"end_to_end"`
	PerLayer metrics        `json:"per_layer,omitempty"`
	// Diag holds latency distributions behind the end-to-end percentiles.
	Diag   map[string][]float64 `json:"diag,omitempty"`
	Result result               `json:"result"`
}

// outcome is what a workload runner hands back.
type outcome struct {
	e2e       metrics
	layers    metrics
	attempted int
	failed    int
	invalid   []string
	samples   map[string]int
	broken    []string // traced run: reconciliation checks that failed
	diag      map[string][]float64
}

func main() {
	var (
		workload     = flag.String("workload", "", "workload to run: serve-mixed | serve-ingest | replay-spill")
		seed         = flag.Int64("seed", 1, "input seed; equal seeds give equal inputs (replay child: which estimate points it samples)")
		seconds      = flag.Int("seconds", 20, "length of the timed phase")
		trace        = flag.Int("trace", 0, "1: also measure the layers and print per-layer metrics instead of end-to-end ones")
		compare      = flag.Bool("compare", false, "compare two files of benchmark output: --compare BASE NEW")
		child        = flag.String("child", "", "internal: run as the replay child reading this input file")
		writeFixture = flag.String("write-fixtures", "", "regenerate the topology fixtures into this directory")
	)
	flag.Parse()
	var err error
	switch {
	case *writeFixture != "":
		err = writeFixtures(*writeFixture)
	case *child != "":
		err = replayChild(*child, *seed, *trace == 1)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare takes two files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	default:
		err = benchmark(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(workload string, seed int64, seconds int, trace bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds = %d, want > 0", seconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var (
		out *outcome
		err error
	)
	switch workload {
	case "serve-mixed":
		out, err = serveWorkload(ctx, serveSpec{
			fixtures:     []string{"diurnal-1", "diurnal-2", "diurnal-3", "diurnal-4"},
			window:       256,
			ctype:        ctypeJSON,
			ingestRate:   mixedIngestRate,
			estimateRate: mixedEstimateRate,
			streamLen:    (256/batchRows + int(mixedIngestRate*float64(seconds))/4 + 2) * batchRows,
			setups:       7,
		}, seed, seconds, trace)
	case "serve-ingest":
		out, err = serveWorkload(ctx, serveSpec{
			fixtures:     []string{"diurnal-1", "diurnal-2"},
			window:       65536,
			ctype:        ctypeBinary,
			estimateRate: ingestEstimateRate,
			streamLen:    1 << 18,
			setups:       5,
		}, seed, seconds, trace)
	case "replay-spill":
		out, err = replayWorkload(ctx, seed, seconds, trace)
	default:
		return fmt.Errorf("unknown --workload %q (serve-mixed | serve-ingest | replay-spill)", workload)
	}
	if err != nil {
		return err
	}
	mach := machineInfo()
	if mach.GOMAXPROCS > mach.NumCPU {
		out.invalid = append(out.invalid, fmt.Sprintf("load generator GOMAXPROCS %d exceeds nproc %d", mach.GOMAXPROCS, mach.NumCPU))
	}
	for _, why := range out.invalid {
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", why)
	}
	for _, why := range out.broken {
		fmt.Fprintln(os.Stderr, "perfbench: reconciliation failed:", why)
	}
	res := result{Correct: out.failed == 0 && len(out.broken) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e}
	if trace {
		res.Metrics = out.layers
	}
	rec := record{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Machine: mach,
		Valid: len(out.invalid) == 0, Invalid: out.invalid, Samples: out.samples,
		EndToEnd: out.e2e, PerLayer: out.layers, Diag: out.diag, Result: res,
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n%s\n", recLine, resLine)
	return nil
}

func machineInfo() machine {
	m := machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GOAMD64: "v1"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				m.GOAMD64 = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return m
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile is the q-quantile of xs by linear interpolation (xs is sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func percentiles(xs []float64) []float64 {
	return []float64{quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.95), quantile(xs, 0.99)}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
