package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// TestNonFiniteEstimateIsAnError feeds crafted equation systems whose
// right-hand side or solution is not finite through every completion
// strategy: each must fail with ErrNonFiniteEstimate — on the workspace
// path and the allocating wrapper alike — instead of serving NaN or
// infinite probabilities.
func TestNonFiniteEstimateIsAnError(t *testing.T) {
	system := func(rank int, rows [][]int, ys ...float64) *EquationSystem {
		sys := &EquationSystem{NumLinks: 3, Rank: rank, Covered: bitset.FromIndices(0, 1, 2)}
		for i, links := range rows {
			sys.Equations = append(sys.Equations, Equation{Links: bitset.FromIndices(links...), Y: ys[i]})
		}
		return sys
	}
	square := [][]int{{0}, {0, 1}, {0, 1, 2}}
	under := [][]int{{0, 1}, {1, 2}}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		sys     *EquationSystem
		opts    Options
		wantErr string // "" for a finite estimate
	}{
		{"square NaN y", system(3, square, -0.1, nan, -0.3), Options{}, "equation 1 has right-hand side NaN"},
		{"square -Inf y", system(3, square, -0.1, -0.2, -inf), Options{}, "equation 2 has right-hand side -Inf"},
		{"square overflowing solution", system(3, square, -1.7e308, 1.7e308, -0.1), Options{}, "solved to"},
		{"l1 NaN y", system(2, under, nan, -0.2), Options{}, "equation 0 has right-hand side NaN"},
		{"min-norm NaN y", system(2, under, -0.1, nan), Options{ForceMinNorm: true}, "equation 1 has right-hand side NaN"},
		{"least-squares NaN y", system(3, square, nan, -0.2, -0.3), Options{UseAllEquations: true}, "equation 0 has right-hand side NaN"},
		{"l1 finite", system(2, under, -0.1, -0.2), Options{}, ""},
		{"square finite", system(3, square, -0.1, -0.2, -0.3), Options{}, ""},
	}
	ws := NewWorkspace()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts.Normalized()
			inRes, inErr := solveSystemIn(ws, c.sys, opts)
			res, err := solveSystem(c.sys, opts)
			if (inErr == nil) != (err == nil) {
				t.Fatalf("workspace err %v, allocating err %v", inErr, err)
			}
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("finite system failed: %v", err)
				}
				for k, p := range res.CongestionProb {
					if math.IsNaN(p) || p != inRes.CongestionProb[k] {
						t.Fatalf("link %d: allocating %v, workspace %v", k, p, inRes.CongestionProb[k])
					}
				}
				return
			}
			for _, e := range []error{inErr, err} {
				if !errors.Is(e, ErrNonFiniteEstimate) {
					t.Fatalf("err = %v, want ErrNonFiniteEstimate", e)
				}
				if !strings.Contains(e.Error(), c.wantErr) {
					t.Fatalf("err = %q, want it to mention %q", e, c.wantErr)
				}
			}
		})
	}
}
