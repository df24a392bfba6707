package lp

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// TestSolverDimensionErrors pins the exact error strings of the lp entry
// point on malformed inputs — mismatched dimensions and nil matrices must
// surface as errors, never panics (the estimator-registry error-contract
// style).
func TestSolverDimensionErrors(t *testing.T) {
	a23 := linalg.NewMatrix(2, 3)
	var ws Workspace
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"MinimizeL1ResidualNonPositive nil matrix", func() error { _, err := ws.MinimizeL1ResidualNonPositive(nil, nil); return err },
			"lp: MinimizeL1ResidualNonPositive: nil matrix"},
		{"MinimizeL1ResidualNonPositive short y", func() error { _, err := ws.MinimizeL1ResidualNonPositive(a23, []float64{1, 2, 3}); return err },
			"lp: y has length 3, want 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if err == nil {
				t.Fatalf("no error, want %q", c.want)
			}
			if err.Error() != c.want {
				t.Fatalf("error = %q, want %q", err.Error(), c.want)
			}
		})
	}
}

// TestSolversSurviveRandomShapes is the fuzz-style randomized-input check:
// the solver fed random (often inconsistent) shapes — empty rows or columns,
// mismatched y, positive and negative y — must return a result or an error
// and never panic, and every result must carry an optimality certificate.
func TestSolversSurviveRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var reused Workspace
	for trial := 0; trial < 300; trial++ {
		m, n := rng.Intn(5), rng.Intn(5)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		y := make([]float64, rng.Intn(6))
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		for _, ws := range []*Workspace{new(Workspace), &reused} {
			x, err := ws.MinimizeL1ResidualNonPositive(a, y)
			if err != nil {
				continue
			}
			if err := checkCertificate(a, y, x, ws.duals()); err != nil {
				t.Fatalf("trial %d (%d×%d): %v", trial, m, n, err)
			}
		}
	}
}

// TestWorkspaceSolveMatchesSolve pins the solve as a pure function of
// (A, y): a workspace reused across differently shaped programs returns
// solutions bit-identical to a fresh workspace's, so no basis or buffer
// contents leak from one solve into the next.
func TestWorkspaceSolveMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ws Workspace
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(4), 1+rng.Intn(6)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		want, wantErr := new(Workspace).MinimizeL1ResidualNonPositive(a, y)
		got, gotErr := ws.MinimizeL1ResidualNonPositive(a, y)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: reused err %v, fresh err %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: reused x[%d]=%v, fresh %v", trial, i, got[i], want[i])
			}
		}
	}
}
