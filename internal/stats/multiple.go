package stats

import "sort"

// Multiple-testing corrections. Screening all value pairs of an
// attribute (or all attributes of a comparison) performs many hypothesis
// tests at once; raw p-values then overstate significance. The
// Benjamini–Hochberg procedure controls the false discovery rate and is
// the standard correction for exploratory mining output.

// AdjustBH returns the Benjamini–Hochberg adjusted p-values (q-values)
// for the given p-values, in the same order as the input. Each q-value
// is the smallest FDR at which the corresponding hypothesis would be
// rejected. Inputs outside [0,1] are clamped.
func AdjustBH(pvalues []float64) []float64 {
	n := len(pvalues)
	if n == 0 {
		return nil
	}
	type item struct {
		p   float64
		idx int
	}
	items := make([]item, n)
	for i, p := range pvalues {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		items[i] = item{p, i}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].p < items[j].p })

	out := make([]float64, n)
	// Walk from the largest p downward, enforcing monotonicity.
	minSoFar := 1.0
	for rank := n - 1; rank >= 0; rank-- {
		q := items[rank].p * float64(n) / float64(rank+1)
		if q < minSoFar {
			minSoFar = q
		}
		if minSoFar > 1 {
			minSoFar = 1
		}
		out[items[rank].idx] = minSoFar
	}
	return out
}
