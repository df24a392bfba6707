package lp

import (
	"testing"

	"repro/internal/linalg"
)

// FuzzL1Solve feeds the solver routing-like programs decoded from arbitrary
// bytes: data[0] and data[1] pick the shape (up to 12×16, empty rows and
// columns included), the following bytes are the 0/1 entries of A bit by
// bit, then one byte per yᵢ as a signed value in [−4, 4). The solver must
// never panic, and every solution it returns without error must carry an
// optimality certificate. Corpus seeds live under testdata/fuzz/FuzzL1Solve
// and are replayed by the CI fuzz step.
func FuzzL1Solve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0b101001, 0xe0, 0xc0, 0x80}) // the TestSolveTextbook program
	f.Add([]byte{4, 5, 0xff, 0x0f, 0xa5, 0x10, 0x20, 0xf0, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m, n := int(data[0])%13, int(data[1])%17
		data = data[2:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		a := linalg.NewMatrix(m, n)
		var bits byte
		for k := range a.Data {
			if k%8 == 0 {
				bits = next()
			}
			a.Data[k] = float64(bits >> uint(k%8) & 1)
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = float64(int8(next())) / 32
		}
		var ws Workspace
		x, err := ws.MinimizeL1ResidualNonPositive(a, y)
		if err != nil {
			return
		}
		if err := checkCertificate(a, y, x, ws.duals()); err != nil {
			t.Fatalf("%d×%d program A=%v y=%v: %v", m, n, a.Data, y, err)
		}
	})
}
