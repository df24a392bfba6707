// Package lp solves the one linear program the tomography solvers need: the
// L1 completion of Section 4,
//
//	min ‖A·x − y‖₁ + ε·‖x‖₁  s.t.  x ≤ 0,
//
// for the log-linear system of Eqs. 9–10. When Assumption 4 holds only
// partially the collected equations leave the link variables
// underdetermined, and the paper picks the solution that "minimizes the L1
// norm error"; the tiny ε·‖x‖₁ term breaks ties toward the least-congestion
// solution.
//
// Workspace.MinimizeL1ResidualNonPositive is a dense primal simplex built
// for that program's structure. With u = −x the slack basis is feasible from
// the start, so there is no phase 1 and no artificial column; the column of
// each negative slack is the negated column of its positive twin, so the
// tableau stores n+m columns instead of n+2m; and the reduced-cost row is
// updated inside each pivot, then recomputed from the basis once before the
// solve reports optimality. Dantzig's rule picks the entering variable until
// half the pivot budget is spent, Bland's rule after that.
package lp
