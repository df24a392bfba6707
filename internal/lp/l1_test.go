package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// l1Objective is ‖A·x − y‖₁ + ε·‖x‖₁, the objective the solver minimizes.
func l1Objective(a *linalg.Matrix, y, x []float64) float64 {
	return linalg.Norm1(linalg.Sub(a.MulVec(x), y)) + tieEps*linalg.Norm1(x)
}

func TestSolveTextbook(t *testing.T) {
	// A hand-worked program: min |x1+1| + |x2+2| + |x1+x2+4| + ε(|x1|+|x2|).
	// The residuals satisfy r1 + r2 − r3 = −1, so the residual sum is at
	// least 1, reached on the whole set x1 ≤ −1, x2 ≤ −2, x1+x2 ≥ −4; the
	// ε term picks its least-congested corner (−1, −2).
	a := linalg.FromRows([][]float64{
		{1, 0},
		{0, 1},
		{1, 1},
	})
	y := []float64{-1, -2, -4}
	var ws Workspace
	x, err := ws.MinimizeL1ResidualNonPositive(a, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]+1) > 1e-12 || math.Abs(x[1]+2) > 1e-12 {
		t.Fatalf("x = %v, want [-1 -2]", x)
	}
	if obj := l1Objective(a, y, x); math.Abs(obj-(1+3*tieEps)) > 1e-12 {
		t.Fatalf("objective = %v, want 1+3ε", obj)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// Every y < 0, so every row starts from its s⁻ slack: x1 = −3 fits
	// exactly and the ε tie-break leaves the unused x2 at 0.
	a := linalg.FromRows([][]float64{{1, 0}, {1, 0}})
	var ws Workspace
	x, err := ws.MinimizeL1ResidualNonPositive(a, []float64{-3, -3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]+3) > 1e-12 || x[1] != 0 {
		t.Fatalf("x = %v, want [-3 0]", x)
	}
}

func TestSolveDegenerateRedundantRow(t *testing.T) {
	// Redundant constraint: the third row is the sum of the first two and
	// the system is consistent, so the optimum fits every row exactly.
	a := linalg.FromRows([][]float64{
		{1, 0, 1, 0},
		{0, 1, 0, 1},
		{1, 1, 1, 1},
	})
	y := []float64{-2, -3, -5}
	var ws Workspace
	x, err := ws.MinimizeL1ResidualNonPositive(a, y)
	if err != nil {
		t.Fatal(err)
	}
	if r := linalg.Norm1(linalg.Sub(a.MulVec(x), y)); r > 1e-9 {
		t.Fatalf("residual = %v, want 0 (x = %v)", r, x)
	}
	if err := checkCertificate(a, y, x, ws.duals()); err != nil {
		t.Fatal(err)
	}
}

// Property: the simplex optimum is no worse than any random nonpositive
// point.
func TestSolveOptimalityAgainstRandomFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ws Workspace
	for trial := 0; trial < 40; trial++ {
		m, n := 2+rng.Intn(3), 5+rng.Intn(5)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		x, err := ws.MinimizeL1ResidualNonPositive(a, y)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best := l1Objective(a, y, x)
		for k := 0; k < 20; k++ {
			x0 := make([]float64, n)
			for j := range x0 {
				x0[j] = -rng.Float64()
			}
			if obj := l1Objective(a, y, x0); best > obj+1e-9 {
				t.Fatalf("trial %d: simplex %.9f worse than random feasible %.9f", trial, best, obj)
			}
		}
	}
}

func TestMinimizeL1Residual(t *testing.T) {
	// Overdetermined system with one gross outlier: L1 regression must
	// ignore the outlier where L2 would not.
	a := linalg.FromRows([][]float64{{1}, {1}, {1}, {1}, {1}})
	y := []float64{-1, -1, -1, -1, -100}
	var ws Workspace
	x, err := ws.MinimizeL1ResidualNonPositive(a, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]+1) > 1e-9 {
		t.Fatalf("L1 fit = %v, want -1 (median)", x[0])
	}
}

func TestMinimizeL1ResidualExact(t *testing.T) {
	// Consistent overdetermined systems with a nonpositive solution are
	// recovered exactly.
	rng := rand.New(rand.NewSource(12))
	var ws Workspace
	for trial := 0; trial < 20; trial++ {
		m, n := 8, 3
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		want := []float64{-1, -2, -0.5}
		y := a.MulVec(want)
		x, err := ws.MinimizeL1ResidualNonPositive(a, y)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-6 {
				t.Fatalf("trial %d: x = %v, want %v", trial, x, want)
			}
		}
	}
}

func TestBasisPursuitNonPositive(t *testing.T) {
	// x1 + x2 = -1, x ≤ 0: a consistent underdetermined system is fitted
	// exactly, and the ε·‖x‖₁ tie-break makes the completion L1-minimal.
	a := linalg.FromRows([][]float64{{1, 1}})
	var ws Workspace
	x, err := ws.MinimizeL1ResidualNonPositive(a, []float64{-1})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] > 1e-12 || x[1] > 1e-12 {
		t.Fatalf("positive entries: %v", x)
	}
	if math.Abs(x[0]+x[1]+1) > 1e-9 {
		t.Fatalf("constraint violated: %v", x)
	}
	if math.Abs(linalg.Norm1(x)-1) > 1e-9 {
		t.Fatalf("‖x‖₁ = %v, want 1", linalg.Norm1(x))
	}
}

func TestBasisPursuitPicksSparse(t *testing.T) {
	// y = A·x* with sparse nonpositive x*: the completion must fit exactly
	// and achieve an L1 norm no larger than ‖x*‖₁.
	rng := rand.New(rand.NewSource(13))
	var ws Workspace
	for trial := 0; trial < 25; trial++ {
		m, n := 4, 10
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		xs := make([]float64, n)
		xs[rng.Intn(n)] = -1 - rng.Float64()
		y := a.MulVec(xs)
		x, err := ws.MinimizeL1ResidualNonPositive(a, y)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if linalg.Norm1(x) > linalg.Norm1(xs)+1e-6 {
			t.Fatalf("trial %d: ‖x‖₁ = %v > ‖x*‖₁ = %v", trial, linalg.Norm1(x), linalg.Norm1(xs))
		}
		r := linalg.Sub(a.MulVec(x), y)
		if linalg.Norm2(r) > 1e-6 {
			t.Fatalf("trial %d: constraints violated by %v", trial, linalg.Norm2(r))
		}
	}
}

// Property: on random overdetermined systems the simplex objective is at
// least as good as (≤) both the zero point and the least-squares fit
// clipped to x ≤ 0.
func TestL1ObjectiveOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var ws Workspace
	for trial := 0; trial < 20; trial++ {
		m, n := 12, 4
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		xs, err := ws.MinimizeL1ResidualNonPositive(a, y)
		if err != nil {
			t.Fatalf("trial %d simplex: %v", trial, err)
		}
		xl, err := linalg.LeastSquares(a, y)
		if err != nil {
			t.Fatalf("trial %d LS: %v", trial, err)
		}
		for j := range xl {
			xl[j] = math.Min(xl[j], 0)
		}
		obj := l1Objective(a, y, xs)
		if zero := l1Objective(a, y, make([]float64, n)); obj > zero+1e-9 {
			t.Fatalf("trial %d: simplex %.9f worse than the zero point %.9f", trial, obj, zero)
		}
		if ls := l1Objective(a, y, xl); obj > ls+1e-9 {
			t.Fatalf("trial %d: simplex %.9f worse than clipped least squares %.9f", trial, obj, ls)
		}
	}
}
