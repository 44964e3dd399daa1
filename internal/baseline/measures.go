// Package baseline implements the approaches the paper positions itself
// against (Section II): classical rule-ranking interestingness measures,
// decision-tree rule induction (to demonstrate the completeness problem
// of Section III.A), and discovery-driven exception mining from data
// cubes in the style of Sarawagi et al. These baselines let the
// evaluation show *why* attribute-level comparison is needed, not just
// that it works.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"opmap/internal/car"
	"opmap/internal/dataset"
	"opmap/internal/stats"
)

// Measure identifies a classical objective interestingness measure for a
// rule X -> y.
type Measure uint8

// Supported measures. All are computed from the contingency counts
// n(X,y), n(X), n(y), N.
const (
	Confidence Measure = iota
	Support
	Lift
	Leverage
	Conviction
	ChiSquared
	Laplace
	Cosine
	Jaccard
	Certainty
	AddedValue
)

var measureNames = map[Measure]string{
	Confidence: "confidence",
	Support:    "support",
	Lift:       "lift",
	Leverage:   "leverage",
	Conviction: "conviction",
	ChiSquared: "chi-squared",
	Laplace:    "laplace",
	Cosine:     "cosine",
	Jaccard:    "jaccard",
	Certainty:  "certainty",
	AddedValue: "added-value",
}

// String implements fmt.Stringer.
func (m Measure) String() string {
	if n, ok := measureNames[m]; ok {
		return n
	}
	return fmt.Sprintf("Measure(%d)", uint8(m))
}

// AllMeasures lists every supported measure.
func AllMeasures() []Measure {
	out := make([]Measure, 0, len(measureNames))
	for m := range measureNames {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Evaluate computes the measure for a rule given the class marginal
// counts of the dataset it was mined from. classCount is n(y), the
// number of records in the rule's class; total is N.
func Evaluate(m Measure, r car.Rule, classCount int64) (float64, error) {
	n := float64(r.Total)
	nx := float64(r.CondCount)
	ny := float64(classCount)
	nxy := float64(r.SupCount)
	if n <= 0 {
		return 0, fmt.Errorf("baseline: rule has zero total")
	}
	if nxy > nx || nxy > ny || nx > n || ny > n {
		return 0, fmt.Errorf("baseline: inconsistent counts nxy=%v nx=%v ny=%v n=%v", nxy, nx, ny, n)
	}
	px := nx / n
	py := ny / n
	pxy := nxy / n
	var conf float64
	if nx > 0 {
		conf = nxy / nx
	}
	switch m {
	case Confidence:
		return conf, nil
	case Support:
		return pxy, nil
	case Lift:
		if stats.IsZero(px) || stats.IsZero(py) {
			return 0, nil
		}
		return pxy / (px * py), nil
	case Leverage:
		return pxy - px*py, nil
	case Conviction:
		if stats.IsZero(1 - conf) {
			return math.Inf(1), nil
		}
		return (1 - py) / (1 - conf), nil
	case ChiSquared:
		// 2×2 chi-square of X vs y membership.
		e := func(a, b float64) float64 { return a * b / n }
		cells := [4][2]float64{
			{nxy, e(nx, ny)},
			{nx - nxy, e(nx, n-ny)},
			{ny - nxy, e(n-nx, ny)},
			{n - nx - ny + nxy, e(n-nx, n-ny)},
		}
		var chi2 float64
		for _, c := range cells {
			if stats.IsZero(c[1]) {
				continue
			}
			d := c[0] - c[1]
			chi2 += d * d / c[1]
		}
		return chi2, nil
	case Laplace:
		return (nxy + 1) / (nx + 2), nil
	case Cosine:
		if stats.IsZero(nx) || stats.IsZero(ny) {
			return 0, nil
		}
		return nxy / math.Sqrt(nx*ny), nil
	case Jaccard:
		den := nx + ny - nxy
		if stats.IsZero(den) {
			return 0, nil
		}
		return nxy / den, nil
	case Certainty:
		if stats.IsZero(1 - py) {
			return 0, nil
		}
		return (conf - py) / (1 - py), nil
	case AddedValue:
		return conf - py, nil
	default:
		return 0, fmt.Errorf("baseline: unknown measure %v", m)
	}
}

// RankedRule pairs a rule with its measure value.
type RankedRule struct {
	Rule  car.Rule
	Value float64
}

// RankRules evaluates the measure on every rule of rs (using the class
// distribution of ds for marginals) and returns the rules sorted by
// descending value. This is the "rule ranking" baseline of Section II —
// the approach whose top ranks, the authors report, are dominated by
// artifacts of the data.
func RankRules(ds *dataset.Dataset, rs *car.RuleSet, m Measure) ([]RankedRule, error) {
	classDist := ds.ClassDistribution()
	out := make([]RankedRule, 0, len(rs.Rules))
	for _, r := range rs.Rules {
		if int(r.Class) >= len(classDist) {
			return nil, fmt.Errorf("baseline: rule class %d outside dataset classes", r.Class)
		}
		v, err := Evaluate(m, r, classDist[r.Class])
		if err != nil {
			return nil, err
		}
		out = append(out, RankedRule{Rule: r, Value: v})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	return out, nil
}
