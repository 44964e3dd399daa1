package discretize

import (
	"fmt"
	"math"

	"opmap/internal/stats"
)

// ChiMerge is Kerber's (1992) bottom-up supervised discretizer: start
// with one interval per distinct value and repeatedly merge the adjacent
// pair whose class distributions are most similar (lowest chi-square),
// until every adjacent pair differs significantly or the interval budget
// is reached. It complements MDLP: top-down entropy splitting can miss
// boundaries that bottom-up merging preserves, and ChiMerge gives direct
// control over the significance threshold.
type ChiMerge struct {
	// Threshold is the chi-square value below which adjacent intervals
	// merge. Zero means the 0.95 critical value for the data's
	// (numClasses−1) degrees of freedom.
	Threshold float64
	// MaxIntervals caps the result; merging continues past the threshold
	// until the cap is met. Zero means no cap.
	MaxIntervals int
	// MinIntervals stops merging when reached even if pairs remain
	// insignificant. Zero means 1.
	MinIntervals int
	// MaxInitialIntervals pre-bins high-cardinality continuous columns
	// into at most this many quantile groups before merging (identical
	// values are never split). The merge loop is quadratic in the
	// initial interval count, so unbounded distinct values make raw
	// ChiMerge impractical; pre-binning is the standard remedy. Zero
	// means 512.
	MaxInitialIntervals int
}

// Name implements Discretizer.
func (c ChiMerge) Name() string { return "chimerge" }

// chi2Critical95 holds upper-tail 0.95 critical values of the
// chi-square distribution for df = 1..10 (Kerber's default level).
var chi2Critical95 = []float64{
	3.841, 5.991, 7.815, 9.488, 11.070, 12.592, 14.067, 15.507, 16.919, 18.307,
}

type cmInterval struct {
	lo, hi float64 // value range covered (inclusive)
	counts []int64 // class counts
}

// Cuts implements Discretizer.
func (c ChiMerge) Cuts(values []float64, classes []int32, numClasses int) ([]float64, error) {
	if len(values) != len(classes) {
		return nil, fmt.Errorf("discretize: %d values but %d class labels", len(values), len(classes))
	}
	if numClasses < 1 {
		return nil, fmt.Errorf("discretize: numClasses must be positive, got %d", numClasses)
	}
	return c.sortedCuts(labeledValues(values, classes), numClasses), nil
}

// sortedCuts is Cuts over pairs sorted by value.
func (c ChiMerge) sortedCuts(pts []labeledValue, numClasses int) []float64 {
	if len(pts) == 0 {
		return nil
	}
	minIv := c.MinIntervals
	if minIv < 1 {
		minIv = 1
	}
	threshold := c.Threshold
	if stats.IsZero(threshold) {
		df := numClasses - 1
		if df < 1 {
			df = 1
		}
		if df <= len(chi2Critical95) {
			threshold = chi2Critical95[df-1]
		} else {
			// Wilson–Hilferty approximation of the 0.95 quantile.
			k := float64(df)
			threshold = k * math.Pow(1-2/(9*k)+1.645*math.Sqrt(2/(9*k)), 3)
		}
	}

	// Group by distinct value.
	var ivs []cmInterval
	for _, p := range pts {
		if len(ivs) > 0 && stats.SameValue(ivs[len(ivs)-1].hi, p.v) {
			ivs[len(ivs)-1].counts[p.c]++
			continue
		}
		counts := make([]int64, numClasses)
		counts[p.c]++
		ivs = append(ivs, cmInterval{lo: p.v, hi: p.v, counts: counts})
	}

	// Pre-bin high-cardinality columns: the merge loop below is
	// quadratic in len(ivs).
	maxInit := c.MaxInitialIntervals
	if maxInit == 0 {
		maxInit = 512
	}
	if maxInit > 1 && len(ivs) > maxInit {
		ivs = prebin(ivs, maxInit, numClasses)
	}

	// Merge until done, keeping per-pair chi values cached; each merge
	// invalidates only the two pairs touching the merged interval.
	chis := make([]float64, 0, len(ivs))
	for i := 0; i+1 < len(ivs); i++ {
		chis = append(chis, pairChi2(ivs[i].counts, ivs[i+1].counts))
	}
	for len(ivs) > minIv && len(chis) > 0 {
		bestIdx, bestChi := 0, chis[0]
		for i := 1; i < len(chis); i++ {
			if chis[i] < bestChi {
				bestChi = chis[i]
				bestIdx = i
			}
		}
		overCap := c.MaxIntervals > 0 && len(ivs) > c.MaxIntervals
		if bestChi >= threshold && !overCap {
			break // every adjacent pair differs significantly
		}
		merged := cmInterval{
			lo:     ivs[bestIdx].lo,
			hi:     ivs[bestIdx+1].hi,
			counts: make([]int64, numClasses),
		}
		for k := 0; k < numClasses; k++ {
			merged.counts[k] = ivs[bestIdx].counts[k] + ivs[bestIdx+1].counts[k]
		}
		ivs[bestIdx] = merged
		ivs = append(ivs[:bestIdx+1], ivs[bestIdx+2:]...)
		chis = append(chis[:bestIdx], chis[bestIdx+1:]...)
		if bestIdx > 0 {
			chis[bestIdx-1] = pairChi2(ivs[bestIdx-1].counts, ivs[bestIdx].counts)
		}
		if bestIdx < len(chis) {
			chis[bestIdx] = pairChi2(ivs[bestIdx].counts, ivs[bestIdx+1].counts)
		}
	}

	cuts := make([]float64, 0, len(ivs)-1)
	for i := 0; i+1 < len(ivs); i++ {
		cuts = append(cuts, (ivs[i].hi+ivs[i+1].lo)/2)
	}
	return cuts
}

// prebin coalesces value-level intervals into about target quantile
// groups of roughly equal record counts, never splitting a distinct
// value (intervals are whole units).
func prebin(ivs []cmInterval, target, numClasses int) []cmInterval {
	var total int64
	for _, iv := range ivs {
		for _, n := range iv.counts {
			total += n
		}
	}
	per := total / int64(target)
	if per < 1 {
		per = 1
	}
	out := make([]cmInterval, 0, target)
	var cur cmInterval
	var curN int64
	open := false
	for _, iv := range ivs {
		var n int64
		for _, c := range iv.counts {
			n += c
		}
		if !open {
			cur = cmInterval{lo: iv.lo, hi: iv.hi, counts: append([]int64(nil), iv.counts...)}
			curN = n
			open = true
		} else {
			cur.hi = iv.hi
			for k := 0; k < numClasses; k++ {
				cur.counts[k] += iv.counts[k]
			}
			curN += n
		}
		if curN >= per {
			out = append(out, cur)
			open = false
		}
	}
	if open {
		out = append(out, cur)
	}
	return out
}

// pairChi2 is the chi-square statistic of a 2×k table formed by two
// adjacent intervals' class counts, with Kerber's convention that empty
// expected cells contribute via a small epsilon.
func pairChi2(a, b []int64) float64 {
	k := len(a)
	rowA, rowB := int64(0), int64(0)
	col := make([]int64, k)
	for j := 0; j < k; j++ {
		rowA += a[j]
		rowB += b[j]
		col[j] = a[j] + b[j]
	}
	total := rowA + rowB
	if total == 0 {
		return 0
	}
	var chi float64
	for j := 0; j < k; j++ {
		if col[j] == 0 {
			continue
		}
		ea := float64(rowA) * float64(col[j]) / float64(total)
		eb := float64(rowB) * float64(col[j]) / float64(total)
		if ea > 0 {
			d := float64(a[j]) - ea
			chi += d * d / ea
		}
		if eb > 0 {
			d := float64(b[j]) - eb
			chi += d * d / eb
		}
	}
	return chi
}
