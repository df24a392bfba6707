package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// certTol bounds the primal and dual infeasibility an optimality
// certificate may show.
const certTol = 1e-9

// duals returns the duals π = c_Bᵀ·B⁻¹ of the last solve's final basis. The
// s⁺ columns of the standard-form program are the identity, so their
// tableau columns are B⁻¹ itself.
func (ws *Workspace) duals() []float64 {
	pi := make([]float64, ws.m)
	for r, bv := range ws.basis {
		cb := ws.cost(bv)
		row := ws.t.Row(r)
		for i := range pi {
			pi[i] += cb * row[ws.n+i]
		}
	}
	return pi
}

// checkCertificate verifies that x solves min ‖A·x − y‖₁ + ε·‖x‖₁ over
// x ≤ 0, with π as the dual certificate of the LP dual
//
//	max yᵀπ  s.t.  |πᵢ| ≤ 1,  ε + Aⱼᵀπ ≥ 0:
//
// x is primal feasible, π is dual feasible, and the two objectives agree
// to within 1e-9 relative. Degenerate programs have many optimal vertices;
// any of them passes.
func checkCertificate(a *linalg.Matrix, y, x, pi []float64) error {
	m, n := a.Rows, a.Cols
	if len(x) != n || len(pi) != m {
		return fmt.Errorf("certificate: len(x) = %d, len(π) = %d for a %d×%d program", len(x), len(pi), m, n)
	}
	for j, v := range x {
		if !(v <= certTol) {
			return fmt.Errorf("certificate: primal infeasible: x[%d] = %g", j, v)
		}
	}
	for i, p := range pi {
		if !(math.Abs(p) <= 1+certTol) {
			return fmt.Errorf("certificate: dual infeasible: π[%d] = %g", i, p)
		}
	}
	for j := 0; j < n; j++ {
		s := tieEps
		for i := 0; i < m; i++ {
			s += a.At(i, j) * pi[i]
		}
		if !(s >= -certTol) {
			return fmt.Errorf("certificate: dual infeasible: ε + A[:,%d]ᵀπ = %g", j, s)
		}
	}
	primal, dual := l1Objective(a, y, x), linalg.Dot(y, pi)
	if !(math.Abs(primal-dual) <= 1e-9*(1+primal)) {
		return fmt.Errorf("certificate: duality gap: primal %.15g, dual %.15g", primal, dual)
	}
	return nil
}

// routingMatrix returns an m×n 0/1 matrix shaped like a tomography system:
// each row is the link set of a path (or path pair), 1–6 distinct links.
func routingMatrix(rng *rand.Rand, m, n int) *linalg.Matrix {
	a := linalg.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for _, j := range rng.Perm(n)[:1+rng.Intn(min(6, n))] {
			a.Set(i, j, 1)
		}
	}
	return a
}

// TestCertificateRoutingLike is the optimality property over routing-like
// programs up to the serving size (127 equations × 151 links): every
// solution carries a certificate, both for the log-probability right-hand
// sides the estimators produce (y ≤ 0, noisy, often inconsistent) and for
// arbitrary mixed-sign y.
func TestCertificateRoutingLike(t *testing.T) {
	trials := 20
	if !testing.Short() {
		trials = 150
	}
	rng := rand.New(rand.NewSource(31))
	var ws Workspace
	for trial := 0; trial < trials; trial++ {
		m, n := 1+rng.Intn(127), 1+rng.Intn(151)
		if trial == 0 {
			m, n = 127, 151
		}
		a := routingMatrix(rng, m, n)
		truth := make([]float64, n)
		for j := range truth {
			if rng.Intn(4) == 0 {
				truth[j] = -rng.ExpFloat64() / 4
			}
		}
		nonPositive := a.MulVec(truth)
		for i := range nonPositive {
			nonPositive[i] = math.Min(0, nonPositive[i]+rng.NormFloat64()/50)
		}
		mixed := make([]float64, m)
		for i := range mixed {
			mixed[i] = rng.NormFloat64()
		}
		for _, y := range [][]float64{nonPositive, mixed} {
			x, err := ws.MinimizeL1ResidualNonPositive(a, y)
			if err != nil {
				t.Fatalf("trial %d (%d×%d): %v", trial, m, n, err)
			}
			if err := checkCertificate(a, y, x, ws.duals()); err != nil {
				t.Fatalf("trial %d (%d×%d): %v", trial, m, n, err)
			}
		}
	}
}

// TestCertificateRejectsSuboptimal makes sure the checker can fail: the
// always-feasible zero point with the zero dual leaves a duality gap on
// any program with a nonzero residual, and a perturbed optimum breaks
// either feasibility or the gap.
func TestCertificateRejectsSuboptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := routingMatrix(rng, 40, 60)
	y := make([]float64, a.Rows)
	for i := range y {
		y[i] = -rng.Float64()
	}
	var ws Workspace
	x, err := ws.MinimizeL1ResidualNonPositive(a, y)
	if err != nil {
		t.Fatal(err)
	}
	pi := ws.duals()
	if err := checkCertificate(a, y, x, pi); err != nil {
		t.Fatalf("optimum rejected: %v", err)
	}
	if err := checkCertificate(a, y, make([]float64, a.Cols), make([]float64, a.Rows)); err == nil {
		t.Fatal("zero point with zero duals accepted")
	}
	worse := append([]float64(nil), x...)
	worse[0] -= 0.5
	if err := checkCertificate(a, y, worse, pi); err == nil {
		t.Fatal("perturbed solution accepted")
	}
	pos := append([]float64(nil), x...)
	pos[0] = 1e-3
	if err := checkCertificate(a, y, pos, pi); err == nil {
		t.Fatal("positive coordinate accepted")
	}
}
