package lp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/scratch"
)

// ErrUnbounded is returned when no row bounds the entering variable's
// ratio test. The L1 objective is bounded below by zero, so this happens
// only on non-finite input or when rounding has wrecked the tableau.
var ErrUnbounded = errors.New("lp: problem is unbounded")

// ErrIterationLimit is returned when the simplex fails to converge within
// its pivot budget (cycling or numerically hopeless problems).
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const (
	pivotEps = 1e-9
	costEps  = 1e-9
	// tieEps is the ε of the ε·‖x‖₁ tie-break.
	tieEps = 1e-6
)

// Workspace holds the reusable state of the L1 simplex: the tableau, its
// reduced-cost row, the basic values and the solution. Buffers grow
// monotonically and are retained across calls, so a steady-state caller
// solving same-shaped programs allocates nothing. No state carries from one
// solve to the next: the answer is a function of (A, y) alone. A Workspace
// must not be used by two goroutines at once; slices returned by workspace
// methods alias workspace storage and are valid only until the next call on
// the same workspace.
type Workspace struct {
	m, n int
	// t holds the m tableau rows over the n+m stored columns: u₀…uₙ₋₁, then
	// s⁺₀…s⁺ₘ₋₁. The column of s⁻ᵢ is always the negated column of s⁺ᵢ and
	// is never stored.
	t linalg.Matrix
	// z is the reduced-cost row over the stored columns; the reduced cost
	// of s⁻ᵢ is 2 − z[n+i].
	z []float64
	b []float64
	// basis[r] is the variable basic in row r, numbered u < s⁺ < s⁻:
	// u_j = j, s⁺ᵢ = n+i, s⁻ᵢ = n+m+i. The numbering is the tie-break order
	// of the pivot rules.
	basis  []int
	pivots int
	x      []float64
}

// MinimizeL1ResidualNonPositive solves
//
//	min ‖A·x − y‖₁ + ε·‖x‖₁  s.t.  x ≤ 0.
//
// This is the completion rule of Section 4 for underdetermined systems
// ("we pick the one that minimizes the L1 norm error"): always feasible
// (x = 0), robust to measurement noise that would make the hard equality
// system A·x = y, x ≤ 0 infeasible, and the tiny ε·‖x‖₁ tie-break prefers
// the least-congestion solution among residual-minimal ones.
//
// With u = −x ≥ 0 it is the standard-form LP
//
//	min 1ᵀ(s⁺+s⁻) + ε·1ᵀu  s.t.  −A·u + s⁺ − s⁻ = y,  u, s± ≥ 0,
//
// which the primal simplex solves from the slack basis (s⁺ᵢ where yᵢ ≥ 0,
// s⁻ᵢ otherwise), a feasible start. The returned slice aliases the
// workspace.
func (ws *Workspace) MinimizeL1ResidualNonPositive(a *linalg.Matrix, y []float64) ([]float64, error) {
	if a == nil {
		return nil, fmt.Errorf("lp: MinimizeL1ResidualNonPositive: nil matrix")
	}
	m, n := a.Rows, a.Cols
	if len(y) != m {
		return nil, fmt.Errorf("lp: y has length %d, want %d", len(y), m)
	}
	ws.m, ws.n = m, n
	ws.t.Reshape(m, n+m)
	ws.t.Zero()
	ws.b = scratch.Grow(ws.b, m)
	ws.basis = scratch.Grow(ws.basis, m)
	for i := 0; i < m; i++ {
		// Row i of B⁻¹·[−A | I] for the diagonal slack basis B = diag(σ).
		sigma := 1.0
		ws.basis[i] = n + i
		if y[i] < 0 {
			sigma = -1
			ws.basis[i] = n + m + i
		}
		row := ws.t.Row(i)
		for j, v := range a.Row(i) {
			row[j] = -sigma * v
		}
		row[n+i] = sigma
		ws.b[i] = sigma * y[i]
	}
	ws.z = scratch.Grow(ws.z, n+m)
	ws.reducedCosts()
	if err := ws.optimize(); err != nil {
		return nil, err
	}
	ws.x = scratch.GrowZero(ws.x, n)
	x := ws.x
	for i, bv := range ws.basis {
		if bv < n {
			x[bv] = ws.b[i]
		}
	}
	for j := range x {
		x[j] = -x[j]
	}
	return x, nil
}

// cost is the objective coefficient of variable v.
func (ws *Workspace) cost(v int) float64 {
	if v < ws.n {
		return tieEps
	}
	return 1
}

// reducedCosts recomputes z = c − c_Bᵀ·B⁻¹·[−A | I] from the basis, one
// row-major sweep over the tableau.
func (ws *Workspace) reducedCosts() {
	z := ws.z
	for j := range z {
		z[j] = ws.cost(j)
	}
	for i, bv := range ws.basis {
		cb := ws.cost(bv)
		for j, v := range ws.t.Row(i) {
			z[j] -= cb * v
		}
	}
}

// reducedCost returns the reduced cost of variable v.
func (ws *Workspace) reducedCost(v int) float64 {
	if s := v - ws.n - ws.m; s >= 0 {
		return 2 - ws.z[ws.n+s]
	}
	return ws.z[v]
}

// column maps variable v to its stored column and the sign its tableau
// column carries relative to that stored column.
func (ws *Workspace) column(v int) (int, float64) {
	if s := v - ws.n - ws.m; s >= 0 {
		return ws.n + s, -1
	}
	return v, 1
}

// entering picks the entering variable: the most negative reduced cost
// (Dantzig), or with bland the first negative one, scanning u, s⁺, s⁻ so
// ties go to the lowest variable number. It returns −1 at optimality.
func (ws *Workspace) entering(bland bool) int {
	nv := ws.n + 2*ws.m
	enter, best := -1, -costEps
	for v := 0; v < nv; v++ {
		if rc := ws.reducedCost(v); rc < best {
			if bland {
				return v
			}
			enter, best = v, rc
		}
	}
	return enter
}

// optimize runs primal simplex pivots until no reduced cost is below
// −costEps. The reduced-cost row is updated inside each pivot; before
// declaring optimality it is recomputed from the basis once, so rounding
// drift in the updated row cannot end the solve early.
func (ws *Workspace) optimize() error {
	maxPivots := 2000 + 40*(ws.n+4*ws.m)
	blandFrom := maxPivots / 2
	ws.pivots = 0
	fresh := true // z was just computed from the basis
	for {
		enter := ws.entering(ws.pivots >= blandFrom)
		if enter < 0 {
			if fresh {
				return nil
			}
			ws.reducedCosts()
			fresh = true
			continue
		}
		if ws.pivots == maxPivots {
			return ErrIterationLimit
		}
		// Ratio test, ties to the lowest-numbered basic variable.
		k, sign := ws.column(enter)
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < ws.m; i++ {
			d := sign * ws.t.Row(i)[k]
			if d > pivotEps {
				r := ws.b[i] / d
				if r < bestRatio-1e-12 || (math.Abs(r-bestRatio) <= 1e-12 && (leave == -1 || ws.basis[i] < ws.basis[leave])) {
					bestRatio, leave = r, i
				}
			}
		}
		if leave == -1 {
			return ErrUnbounded
		}
		ws.pivot(leave, enter)
		ws.pivots++
		fresh = false
	}
}

// pivot makes variable enter basic in row leave, updating the tableau rows,
// the basic values and the reduced-cost row.
func (ws *Workspace) pivot(leave, enter int) {
	k, sign := ws.column(enter)
	rc := ws.reducedCost(enter)
	row := ws.t.Row(leave)
	inv := 1 / (sign * row[k])
	for j := range row {
		row[j] *= inv
	}
	ws.b[leave] *= inv
	row[k] = sign // kill rounding noise
	for i := 0; i < ws.m; i++ {
		if i == leave {
			continue
		}
		ri := ws.t.Row(i)
		f := sign * ri[k]
		if f == 0 {
			continue
		}
		for j := range ri {
			ri[j] -= f * row[j]
		}
		ri[k] = 0
		ws.b[i] -= f * ws.b[leave]
	}
	for j := range ws.z {
		ws.z[j] -= rc * row[j]
	}
	// The entering variable's reduced cost is exactly zero.
	ws.z[k] = 0
	if sign < 0 {
		ws.z[k] = 2
	}
	ws.basis[leave] = enter
}
