package compare

import (
	"testing"
)

// FuzzComparator fuzzes the computational core (Eq. 1–3) with random
// small count tables and asserts the paper's invariants:
//
//   - M_i ≥ 0 and M_i is the sum of the per-value contributions;
//   - W_k ≥ 0, and W_k == 0 whenever F_k ≤ 0 (only positive excess
//     confidence counts, Eq. 2);
//   - exactly proportional distributions (D2 = 2×D1 per value) score
//     M_i == 0, the Fig. 2(A) boundary case: doubling every count
//     changes no confidence, so nothing is actionable.
func FuzzComparator(f *testing.F) {
	f.Add(uint8(10), uint8(2), uint8(10), uint8(1), uint8(10), uint8(4), uint8(10), uint8(2), uint8(10), uint8(6), uint8(10), uint8(3), false)
	f.Add(uint8(5), uint8(0), uint8(7), uint8(7), uint8(0), uint8(0), uint8(3), uint8(1), uint8(9), uint8(2), uint8(1), uint8(1), true)
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(2), uint8(2), uint8(0), uint8(0), uint8(255), uint8(128), uint8(64), uint8(32), false)
	f.Fuzz(func(t *testing.T, a0, b0, a1, b1, a2, b2, x0, y0, x1, y1, x2, y2 uint8, disableCI bool) {
		// Build a 3-value table with guaranteed-valid counts: each class
		// count is reduced modulo its value count + 1 so c ≤ n.
		clamp := func(n, c uint8) (int64, int64) {
			nn := int64(n % 32)
			if nn == 0 {
				return 0, 0
			}
			return nn, int64(c) % (nn + 1)
		}
		n1 := make([]int64, 3)
		c1 := make([]int64, 3)
		n2 := make([]int64, 3)
		c2 := make([]int64, 3)
		n1[0], c1[0] = clamp(a0, b0)
		n1[1], c1[1] = clamp(a1, b1)
		n1[2], c1[2] = clamp(a2, b2)
		n2[0], c2[0] = clamp(x0, y0)
		n2[1], c2[1] = clamp(x1, y1)
		n2[2], c2[2] = clamp(x2, y2)

		opts := Options{DisableCI: disableCI}
		score, res, err := CompareValues("Fuzzed", nil, n1, c1, n2, c2, opts)
		if err != nil {
			// Degenerate tables (empty sub-population, zero confidence on
			// the lower side) are rejected by contract, not scored.
			t.Skip()
		}

		if score.Score < 0 {
			t.Fatalf("M = %v < 0 (table n1=%v c1=%v n2=%v c2=%v)", score.Score, n1, c1, n2, c2)
		}
		var sum float64
		for _, d := range details(&res, score) {
			if d.W < 0 {
				t.Fatalf("W_k = %v < 0 for value %q", d.W, d.Label)
			}
			if d.F <= 0 && d.W != 0 {
				t.Fatalf("W_k = %v nonzero with F_k = %v ≤ 0 for value %q", d.W, d.F, d.Label)
			}
			sum += d.W
		}
		if sum != score.Score {
			t.Fatalf("M = %v is not the sum of contributions %v", score.Score, sum)
		}
		if res.Ratio < 1 {
			t.Fatalf("confidence ratio %v < 1; CompareValues must orient so cf2 ≥ cf1", res.Ratio)
		}

		// Proportionality invariant: doubling the D1 table as D2 leaves
		// every confidence bit-identical (small integers scaled by a
		// power of two), so M must be exactly zero — with raw
		// confidences F_k == 0, and with CI revision F_k ≤ 0.
		d2n := make([]int64, 3)
		d2c := make([]int64, 3)
		for k := range n1 {
			d2n[k] = 2 * n1[k]
			d2c[k] = 2 * c1[k]
		}
		for _, ci := range []bool{true, false} {
			pScore, _, err := CompareValues("Proportional", nil, n1, c1, d2n, d2c, Options{DisableCI: ci})
			if err != nil {
				continue
			}
			if pScore.Score != 0 {
				t.Fatalf("proportional distributions scored M = %v (DisableCI=%v, n1=%v c1=%v)", pScore.Score, ci, n1, c1)
			}
		}
	})
}
