package compare

import (
	"context"
	"fmt"
	"math"
	"sort"

	"opmap/internal/dataset"
	"opmap/internal/rulecube"
	"opmap/internal/stats"
)

// Pair screening automates the step that precedes a comparison: the
// user notices in the detailed view that two values of an attribute have
// very different confidences ("drop rates of the two phones are very
// different"). With hundreds of products, finding the pairs worth
// comparing is itself tedious — "Imagine in the application, many pairs
// of phones need to be compared" (Section III.C). ScreenPairs ranks all
// value pairs of an attribute by the statistical significance of their
// confidence gap, so the analyst starts from the most divergent pair.

// PairCandidate is a value pair whose class confidences differ.
type PairCandidate struct {
	Attr   int
	V1, V2 int32 // oriented so conf(V1) < conf(V2)
	Label1 string
	Label2 string

	Cf1, Cf2 float64
	N1, N2   int64
	// Ratio is Cf2/Cf1 (Inf when Cf1 is 0 — such pairs cannot feed the
	// comparator directly and are ranked last).
	Ratio float64
	// Z is the two-proportion z statistic of the gap; PValue its
	// two-sided p-value; QValue the Benjamini–Hochberg adjusted p-value
	// across all screened pairs of the attribute (screening is a
	// multiple-testing exercise).
	Z      float64
	PValue float64
	QValue float64
}

// ScreenOptions tunes pair screening.
type ScreenOptions struct {
	// MinSupport skips values with fewer records. Zero means 100 — the
	// paper assumes "both supports are large enough for meaningful
	// analysis".
	MinSupport int64
	// MaxPairs caps the result. Zero means all pairs.
	MaxPairs int
	// MinZ drops pairs whose |z| is below this. Zero means 2.
	MinZ float64
}

func (o ScreenOptions) minSupport() int64 {
	if o.MinSupport == 0 {
		return 100
	}
	return o.MinSupport
}

func (o ScreenOptions) minZ() float64 {
	if stats.IsZero(o.MinZ) {
		return 2
	}
	return o.MinZ
}

// ScreenPairs ranks the value pairs of attr by the significance of
// their confidence difference on the class, most significant first.
func (c *Comparator) ScreenPairs(attr int, class int32, opts ScreenOptions) ([]PairCandidate, error) {
	return c.ScreenPairsContext(context.Background(), attr, class, opts)
}

// ScreenPairsContext is ScreenPairs under a context: a lazy source may
// need to materialize the attribute's 1-D cube first.
func (c *Comparator) ScreenPairsContext(ctx context.Context, attr int, class int32, opts ScreenOptions) ([]PairCandidate, error) {
	ds := c.ds
	if attr < 0 || attr >= ds.NumAttrs() || attr == ds.ClassIndex() {
		return nil, fmt.Errorf("compare: invalid attribute %d", attr)
	}
	if class < 0 || int(class) >= ds.NumClasses() {
		return nil, fmt.Errorf("compare: class %d out of range", class)
	}
	cube, err := c.src.CubeN(ctx, []int{attr})
	if err != nil {
		return nil, fmt.Errorf("compare: attribute %d unavailable: %w", attr, err)
	}
	// The screen itself is cardinality-bounded work over the resident
	// cube and runs to completion even under a canceled context: the
	// sweep's partial mode depends on a complete candidate list so it
	// can annotate every pair it will not compare.
	sides, err := collectSides(cube, class, opts)
	if err != nil {
		return nil, err
	}
	out := screenCandidates(sides, cube.Dict(0), attr, opts)
	applyFDR(out)
	sort.SliceStable(out, func(i, j int) bool {
		// Pairs the comparator can consume (finite ratio) first, then by
		// descending significance.
		fi, fj := math.IsInf(out[i].Ratio, 1), math.IsInf(out[j].Ratio, 1)
		if fi != fj {
			return !fi
		}
		switch {
		case out[i].Z > out[j].Z:
			return true
		case out[j].Z > out[i].Z:
			return false
		}
		return out[i].Label1+out[i].Label2 < out[j].Label1+out[j].Label2
	})
	if opts.MaxPairs > 0 && len(out) > opts.MaxPairs {
		out = out[:opts.MaxPairs]
	}
	return out, nil
}

// side is one attribute value that passed the support screen, with its
// condition count, class count and confidence.
type side struct {
	v    int32
	n, s int64
	cf   float64
}

// collectSides reads each value's condition and class counts from the
// 1-D cube and keeps the values meeting the support threshold.
func collectSides(cube *rulecube.Cube, class int32, opts ScreenOptions) ([]side, error) {
	var sides []side
	for v := int32(0); int(v) < cube.Dim(0); v++ {
		n, err := cube.CondCount([]int32{v})
		if err != nil {
			return nil, err
		}
		if n < opts.minSupport() {
			continue
		}
		s, err := cube.Count([]int32{v}, class)
		if err != nil {
			return nil, err
		}
		sides = append(sides, side{v: v, n: n, s: s, cf: float64(s) / float64(n)})
	}
	return sides, nil
}

// screenCandidates forms every value pair whose confidence difference
// clears the z threshold, oriented so Cf1 <= Cf2.
func screenCandidates(sides []side, dict *dataset.Dictionary, attr int, opts ScreenOptions) []PairCandidate {
	var out []PairCandidate
	for i := 0; i < len(sides); i++ {
		for j := i + 1; j < len(sides); j++ {
			a, b := sides[i], sides[j]
			if a.cf > b.cf {
				a, b = b, a
			}
			z := twoProportionZ(a.s, a.n, b.s, b.n)
			if math.Abs(z) < opts.minZ() {
				continue
			}
			pc := PairCandidate{
				Attr:   attr,
				V1:     a.v,
				V2:     b.v,
				Label1: dict.Label(a.v),
				Label2: dict.Label(b.v),
				Cf1:    a.cf,
				Cf2:    b.cf,
				N1:     a.n,
				N2:     b.n,
				Z:      math.Abs(z),
				PValue: 2 * (1 - stats.NormalCDF(math.Abs(z))),
			}
			if a.cf > 0 {
				pc.Ratio = b.cf / a.cf
			} else {
				pc.Ratio = math.Inf(1)
			}
			out = append(out, pc)
		}
	}
	return out
}

// applyFDR fills each candidate's QValue with the Benjamini-Hochberg
// adjustment across all screened pairs.
func applyFDR(out []PairCandidate) {
	ps := make([]float64, len(out))
	for i := range out {
		ps[i] = out[i].PValue
	}
	for i, q := range stats.AdjustBH(ps) {
		out[i].QValue = q
	}
}

// twoProportionZ computes the pooled two-proportion z statistic for
// (s1/n1) vs (s2/n2).
func twoProportionZ(s1, n1, s2, n2 int64) float64 {
	if n1 == 0 || n2 == 0 {
		return 0
	}
	p1 := float64(s1) / float64(n1)
	p2 := float64(s2) / float64(n2)
	pooled := float64(s1+s2) / float64(n1+n2)
	se := math.Sqrt(pooled * (1 - pooled) * (1/float64(n1) + 1/float64(n2)))
	if stats.IsZero(se) {
		return 0
	}
	return (p2 - p1) / se
}
