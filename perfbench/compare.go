package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareFiles is the bench diff: it reads the records of two sets of
// runs (any number of captured benchmark outputs, concatenated) and prints,
// per workload and metric, each side's median and quartiles, the ratio of
// the medians with its base, and the share of seed-matched pairs the new
// side won. Directions come from BENCHMARK.json in the working directory.
func compareFiles(w io.Writer, basePath, newPath string) error {
	better, err := directions("BENCHMARK.json")
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	next, err := readRecords(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tbase q1..q3\tnew median\tnew q1..q3\tnew/base\tpairs won\t")
	for _, key := range sortedGroups(base) {
		b, n := base[key], next[key]
		if len(n) == 0 {
			continue
		}
		for _, name := range metricNames(b) {
			bv, nv := values(b, name), values(n, name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			bq, nq := quartiles(bv), quartiles(nv)
			won, pairs := wins(b, n, name, better[name])
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g..%.6g\t%.6g\t%.6g..%.6g\t%.4f\t%d/%d\t\n",
				key, name, unitOf(b, name), bq[1], bq[0], bq[2], nq[1], nq[0], nq[2], nq[1]/bq[1], won, pairs)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, set := range []struct {
		name string
		recs map[string][]record
	}{{"base", base}, {"new", next}} {
		for _, key := range sortedGroups(set.recs) {
			for _, r := range set.recs[key] {
				if !r.Valid || !r.Result.Correct {
					fmt.Fprintf(w, "%s: %s seed %d: correct=%v valid=%v %s\n", set.name, key, r.Seed, r.Result.Correct, r.Valid, strings.Join(r.Invalid, "; "))
				}
			}
		}
	}
	return nil
}

// directions maps each metric of BENCHMARK.json to its "better" side.
func directions(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		out[m.Name] = m.Better
	}
	return out, nil
}

// readRecords collects the "record" lines of a file, grouped by workload
// and trace mode.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "record ")
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		key := r.Workload
		if r.Trace {
			key += " (traced)"
		}
		out[key] = append(out[key], r)
	}
	return out, sc.Err()
}

func sortedGroups(m map[string][]record) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func metricNames(recs []record) []string {
	set := map[string]bool{}
	for _, r := range recs {
		for name := range r.Result.Metrics {
			set[name] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func unitOf(recs []record, name string) string {
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			return m.Unit
		}
	}
	return ""
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// wins counts the seed-matched pairs in which the new run is better than
// the base run; ties count for neither side.
func wins(base, next []record, name, better string) (won, pairs int) {
	bySeed := map[int64]float64{}
	for _, r := range base {
		if m, ok := r.Result.Metrics[name]; ok {
			bySeed[r.Seed] = m.Value
		}
	}
	for _, r := range next {
		m, ok := r.Result.Metrics[name]
		b, okb := bySeed[r.Seed]
		if !ok || !okb {
			continue
		}
		pairs++
		if (better == "higher" && m.Value > b) || (better != "higher" && m.Value < b) {
			won++
		}
	}
	return won, pairs
}
