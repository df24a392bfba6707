package lp

import "repro/internal/linalg"

// Test-only access for the external lp_test package, whose tests build
// programs through packages that themselves import lp.

// Duals returns the final basis duals of the workspace's last solve.
func Duals(ws *Workspace) []float64 { return ws.duals() }

// Pivots returns the number of pivots the workspace's last solve took.
func Pivots(ws *Workspace) int { return ws.pivots }

// CheckCertificate is checkCertificate.
func CheckCertificate(a *linalg.Matrix, y, x, pi []float64) error {
	return checkCertificate(a, y, x, pi)
}
