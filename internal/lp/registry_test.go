package lp_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

// l1Program is one L1 completion program: the equation system a linear
// estimator builds at a window's first checkpoint.
type l1Program struct {
	name string
	a    *linalg.Matrix
	y    []float64
	// underdetermined reports whether the estimator itself sends this
	// system to the L1 solver (rank below the link count).
	underdetermined bool
}

// firstCheckpointProgram simulates the named registry scenario for one
// window of snapshots and returns the correlation estimator's equation
// system over it — the program a window of that size solves at its first
// checkpoint.
func firstCheckpointProgram(tb testing.TB, name string, seed int64, window int) l1Program {
	tb.Helper()
	scn, err := scenario.BuildNamed(name, seed)
	if err != nil {
		tb.Fatal(err)
	}
	top := scn.Topology
	var rec *netsim.Record
	if scn.Process != nil {
		rec, err = netsim.RunDynamic(context.Background(), netsim.DynamicConfig{
			Topology: top, Process: scn.Process, Snapshots: window, Seed: seed, Workers: 1,
		})
	} else {
		rec, err = netsim.Run(netsim.Config{
			Topology: top, Model: scn.Model, Snapshots: window, Seed: seed, Parallelism: 1,
		})
	}
	if err != nil {
		tb.Fatal(err)
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		tb.Fatal(err)
	}
	lin, err := core.CompileLinear(top, false, core.Options{}.Normalized())
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := lin.Structure().Evaluate(src)
	if err != nil {
		tb.Fatal(err)
	}
	a, y := sys.Matrix()
	return l1Program{name: name, a: a, y: y, underdetermined: sys.Rank < sys.NumLinks}
}

// TestCertificateRegistryScenarios solves the first-checkpoint program of
// every registry scenario (window 256, seed 1) and checks its optimality
// certificate — including the full-rank systems the estimator would solve
// exactly, since the L1 optimum of a consistent system is a certificate
// too.
func TestCertificateRegistryScenarios(t *testing.T) {
	var ws lp.Workspace
	for _, spec := range scenario.Specs() {
		p := firstCheckpointProgram(t, spec.Name, 1, 256)
		x, err := ws.MinimizeL1ResidualNonPositive(p.a, p.y)
		if err != nil {
			t.Fatalf("%s (%d×%d): %v", p.name, p.a.Rows, p.a.Cols, err)
		}
		if err := lp.CheckCertificate(p.a, p.y, x, lp.Duals(&ws)); err != nil {
			t.Fatalf("%s (%d×%d): %v", p.name, p.a.Rows, p.a.Cols, err)
		}
		t.Logf("%s: %d×%d underdetermined=%v pivots=%d", p.name, p.a.Rows, p.a.Cols, p.underdetermined, lp.Pivots(&ws))
	}
}

var benchSink float64

// BenchmarkL1Solve times the L1 solve alone on the first-checkpoint
// programs of the diurnal scenario at window 256, for the seeds of the
// serving benchmark's four tenants. One op solves all four programs;
// pivots/op is an exact, repeatable count.
func BenchmarkL1Solve(b *testing.B) {
	var progs []l1Program
	for seed := int64(1); seed <= 4; seed++ {
		progs = append(progs, firstCheckpointProgram(b, "diurnal", seed, 256))
	}
	var ws lp.Workspace
	pivots := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			x, err := ws.MinimizeL1ResidualNonPositive(p.a, p.y)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += x[0]
			pivots += lp.Pivots(&ws)
		}
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}
