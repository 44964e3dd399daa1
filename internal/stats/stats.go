// Package stats provides the small statistical toolkit the Opportunity
// Map system depends on: normal-approximation confidence intervals for
// population proportions (Section IV.B of the paper, including the z
// table reproduced as Table I), chi-square statistics for contingency
// tables, and entropy helpers used by the entropy-MDLP discretizer and
// the influential-attribute miner.
package stats

import (
	"fmt"
	"math"
)

// ConfidenceLevel identifies a two-sided statistical confidence level for
// which a z value is tabulated (Table I of the paper).
type ConfidenceLevel float64

// The confidence levels tabulated by the paper (Table I).
const (
	Level90 ConfidenceLevel = 0.90
	Level95 ConfidenceLevel = 0.95
	Level99 ConfidenceLevel = 0.99
)

// zTable reproduces Table I of the paper: z values for the standard
// confidence levels. The paper uses 0.95 (z = 1.96) throughout.
var zTable = map[ConfidenceLevel]float64{
	Level90: 1.645,
	Level95: 1.960,
	Level99: 2.576,
}

// ZValue returns the z constant for the given confidence level. Levels
// not present in Table I are computed from the inverse normal CDF, so
// any level in (0, 1) is accepted.
func ZValue(level ConfidenceLevel) (float64, error) {
	if z, ok := zTable[level]; ok {
		return z, nil
	}
	if level <= 0 || level >= 1 {
		return 0, fmt.Errorf("stats: confidence level %v out of range (0,1)", float64(level))
	}
	// Two-sided: z such that P(-z < Z < z) = level.
	return NormalQuantile(0.5 + float64(level)/2), nil
}

// MustZValue is ZValue for levels known to be valid; it panics otherwise.
// It is convenient for the tabulated constants.
func MustZValue(level ConfidenceLevel) float64 {
	z, err := ZValue(level)
	if err != nil {
		panic(err)
	}
	return z
}

// NormalQuantile returns the quantile function (inverse CDF) of the
// standard normal distribution evaluated at p in (0, 1). It uses the
// Acklam rational approximation, accurate to about 1.15e-9, which is far
// tighter than the 3-digit Table I values.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// NormalCDF returns the cumulative distribution function of the standard
// normal distribution.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// ProportionInterval is a two-sided confidence interval around an
// observed proportion.
type ProportionInterval struct {
	Proportion float64 // observed proportion cf
	Margin     float64 // half-width e; interval is cf ± e
	Lower      float64 // max(0, cf−e)
	Upper      float64 // min(1, cf+e)
	N          int64   // sample size the interval was computed from
}

// ProportionCI computes the normal-approximation (Wald) confidence
// interval for a population proportion, exactly as Section IV.B of the
// paper: e = z * sqrt(cf*(1-cf)/N). A zero sample size yields a
// degenerate interval with maximal margin 0.5 so that tiny populations
// are never treated as precisely measured.
func ProportionCI(successes, n int64, level ConfidenceLevel) (ProportionInterval, error) {
	if successes < 0 || n < 0 || successes > n {
		return ProportionInterval{}, fmt.Errorf("stats: invalid proportion %d/%d", successes, n)
	}
	z, err := ZValue(level)
	if err != nil {
		return ProportionInterval{}, err
	}
	if n == 0 {
		return ProportionInterval{Proportion: 0, Margin: 0.5, Lower: 0, Upper: 0.5, N: 0}, nil
	}
	cf := float64(successes) / float64(n)
	e := z * math.Sqrt(cf*(1-cf)/float64(n))
	return ProportionInterval{
		Proportion: cf,
		Margin:     e,
		Lower:      math.Max(0, cf-e),
		Upper:      math.Min(1, cf+e),
		N:          n,
	}, nil
}

// WilsonCI computes the Wilson score interval for a proportion. The
// paper uses the Wald interval; Wilson is provided because it behaves
// sensibly for extreme proportions and small N, and the comparator can
// be configured to use it as an extension.
func WilsonCI(successes, n int64, level ConfidenceLevel) (ProportionInterval, error) {
	if successes < 0 || n < 0 || successes > n {
		return ProportionInterval{}, fmt.Errorf("stats: invalid proportion %d/%d", successes, n)
	}
	z, err := ZValue(level)
	if err != nil {
		return ProportionInterval{}, err
	}
	if n == 0 {
		return ProportionInterval{Proportion: 0, Margin: 0.5, Lower: 0, Upper: 0.5, N: 0}, nil
	}
	nf := float64(n)
	p := float64(successes) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / denom
	return ProportionInterval{
		Proportion: p,
		Margin:     half,
		Lower:      math.Max(0, center-half),
		Upper:      math.Min(1, center+half),
		N:          n,
	}, nil
}

// ChiSquare computes Pearson's chi-square statistic for an r×c
// contingency table of observed counts, together with its degrees of
// freedom. Rows or columns whose marginal total is zero are ignored (they
// contribute nothing and would otherwise divide by zero).
func ChiSquare(observed [][]int64) (statistic float64, df int, err error) {
	r := len(observed)
	if r == 0 {
		return 0, 0, fmt.Errorf("stats: empty contingency table")
	}
	c := len(observed[0])
	rowTot := make([]float64, r)
	colTot := make([]float64, c)
	var grand float64
	for i, row := range observed {
		if len(row) != c {
			return 0, 0, fmt.Errorf("stats: ragged contingency table (row %d has %d cols, want %d)", i, len(row), c)
		}
		for j, v := range row {
			if v < 0 {
				return 0, 0, fmt.Errorf("stats: negative count %d at (%d,%d)", v, i, j)
			}
			rowTot[i] += float64(v)
			colTot[j] += float64(v)
			grand += float64(v)
		}
	}
	if IsZero(grand) {
		return 0, 0, fmt.Errorf("stats: contingency table has zero total")
	}
	liveRows, liveCols := 0, 0
	for _, t := range rowTot {
		if t > 0 {
			liveRows++
		}
	}
	for _, t := range colTot {
		if t > 0 {
			liveCols++
		}
	}
	var chi2 float64
	for i := 0; i < r; i++ {
		if IsZero(rowTot[i]) {
			continue
		}
		for j := 0; j < c; j++ {
			if IsZero(colTot[j]) {
				continue
			}
			expected := rowTot[i] * colTot[j] / grand
			d := float64(observed[i][j]) - expected
			chi2 += d * d / expected
		}
	}
	df = (liveRows - 1) * (liveCols - 1)
	if df < 0 {
		df = 0
	}
	return chi2, df, nil
}

// ChiSquarePValue returns an upper-tail p-value for a chi-square
// statistic with df degrees of freedom, using the Wilson–Hilferty normal
// approximation. It is adequate for ranking and significance screening.
func ChiSquarePValue(statistic float64, df int) float64 {
	if df <= 0 {
		return 1
	}
	if statistic <= 0 {
		return 1
	}
	k := float64(df)
	// Wilson–Hilferty: (X/k)^(1/3) approx Normal(1-2/(9k), 2/(9k)).
	z := (math.Cbrt(statistic/k) - (1 - 2/(9*k))) / math.Sqrt(2/(9*k))
	return 1 - NormalCDF(z)
}

// Entropy returns the Shannon entropy (in bits) of a discrete
// distribution given by counts. Zero counts contribute nothing; a zero
// total has entropy zero.
func Entropy(counts []int64) float64 {
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	if IsZero(total) {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / total
		h -= p * math.Log2(p)
	}
	return h
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}
