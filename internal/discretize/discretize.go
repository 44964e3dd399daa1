// Package discretize converts continuous attributes into categorical
// interval attributes, the first stage of the Opportunity Map pipeline
// (Section V.A: "Given a data set, all continuous attributes are first
// discretized using the discretizer (a manual discretization option is
// also available)").
//
// Four strategies are provided: equal-width binning, equal-frequency
// binning, the supervised entropy-MDLP method of Fayyad & Irani (the
// usual default for class association rule mining), and manual cut
// points.
package discretize

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"opmap/internal/dataset"
	"opmap/internal/stats"
)

// Discretizer computes cut points for one continuous attribute.
// values[i] pairs with classes[i]; NaN values are skipped. The returned
// cuts are strictly increasing interior boundaries: k cuts produce k+1
// intervals (-inf, c0], (c0, c1], ..., (ck-1, +inf).
type Discretizer interface {
	Cuts(values []float64, classes []int32, numClasses int) ([]float64, error)
	Name() string
}

// EqualWidth divides the observed range into Bins equal-width intervals.
type EqualWidth struct {
	Bins int
}

// Name implements Discretizer.
func (e EqualWidth) Name() string { return fmt.Sprintf("equal-width(%d)", e.Bins) }

// Cuts implements Discretizer.
func (e EqualWidth) Cuts(values []float64, _ []int32, _ int) ([]float64, error) {
	if e.Bins < 1 {
		return nil, fmt.Errorf("discretize: equal-width needs at least 1 bin, got %d", e.Bins)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > hi { // no non-missing values
		return nil, nil
	}
	if stats.SameValue(lo, hi) || e.Bins == 1 {
		return nil, nil
	}
	width := (hi - lo) / float64(e.Bins)
	cuts := make([]float64, 0, e.Bins-1)
	for i := 1; i < e.Bins; i++ {
		c := lo + width*float64(i)
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts, nil
}

// EqualFrequency divides the data into Bins intervals holding roughly
// equal record counts (quantile binning).
type EqualFrequency struct {
	Bins int
}

// Name implements Discretizer.
func (e EqualFrequency) Name() string { return fmt.Sprintf("equal-frequency(%d)", e.Bins) }

// Cuts implements Discretizer.
func (e EqualFrequency) Cuts(values []float64, _ []int32, _ int) ([]float64, error) {
	if e.Bins < 1 {
		return nil, fmt.Errorf("discretize: equal-frequency needs at least 1 bin, got %d", e.Bins)
	}
	clean := make([]float64, 0, len(values))
	for _, v := range values {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 || e.Bins == 1 {
		return nil, nil
	}
	sort.Float64s(clean)
	cuts := make([]float64, 0, e.Bins-1)
	for i := 1; i < e.Bins; i++ {
		pos := float64(i) * float64(len(clean)) / float64(e.Bins)
		idx := int(pos)
		if idx >= len(clean) {
			idx = len(clean) - 1
		}
		c := clean[idx]
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	// Drop a trailing cut equal to the maximum, which would create an
	// empty last interval.
	for len(cuts) > 0 && cuts[len(cuts)-1] >= clean[len(clean)-1] {
		cuts = cuts[:len(cuts)-1]
	}
	return cuts, nil
}

// Manual uses caller-provided cut points (the paper's manual option).
type Manual struct {
	Points []float64
}

// Name implements Discretizer.
func (m Manual) Name() string { return fmt.Sprintf("manual(%d cuts)", len(m.Points)) }

// Cuts implements Discretizer.
func (m Manual) Cuts(_ []float64, _ []int32, _ int) ([]float64, error) {
	cuts := append([]float64(nil), m.Points...)
	sort.Float64s(cuts)
	// Deduplicate.
	out := cuts[:0]
	for i, c := range cuts {
		if math.IsNaN(c) {
			return nil, fmt.Errorf("discretize: manual cut point is NaN")
		}
		if i == 0 || !stats.SameValue(c, cuts[i-1]) {
			out = append(out, c)
		}
	}
	return out, nil
}

// MDLP is the supervised entropy-minimization discretizer of Fayyad &
// Irani (1993) with the minimum-description-length stopping criterion.
// It recursively picks the boundary that minimizes the class-entropy of
// the induced partition and stops when the information gain no longer
// pays for the partition's description length.
type MDLP struct {
	// MaxDepth bounds recursion (and thus intervals ≤ 2^MaxDepth).
	// Zero means 16.
	MaxDepth int
	// MinIntervalSize is the minimum number of records per interval.
	// Zero means 1.
	MinIntervalSize int
}

// Name implements Discretizer.
func (MDLP) Name() string { return "entropy-mdlp" }

type labeledValue struct {
	v float64
	c int32
}

// labeledValues pairs each value with its class, skipping NaN values
// and missing classes, and sorts the pairs by value. The order among
// equal values is unspecified: both supervised discretizers read only
// the class counts on either side of a boundary between distinct
// values, which that order cannot change.
func labeledValues(values []float64, classes []int32) []labeledValue {
	pairs := make([]labeledValue, 0, len(values))
	for i, v := range values {
		if math.IsNaN(v) || classes[i] < 0 {
			continue
		}
		pairs = append(pairs, labeledValue{v, classes[i]})
	}
	slices.SortFunc(pairs, func(p, q labeledValue) int { return cmp.Compare(p.v, q.v) })
	return pairs
}

// Cuts implements Discretizer.
func (m MDLP) Cuts(values []float64, classes []int32, numClasses int) ([]float64, error) {
	if len(values) != len(classes) {
		return nil, fmt.Errorf("discretize: %d values but %d class labels", len(values), len(classes))
	}
	if numClasses < 1 {
		return nil, fmt.Errorf("discretize: numClasses must be positive, got %d", numClasses)
	}
	return m.sortedCuts(labeledValues(values, classes), numClasses), nil
}

// sortedCuts is Cuts over pairs sorted by value.
func (m MDLP) sortedCuts(pairs []labeledValue, numClasses int) []float64 {
	if len(pairs) == 0 {
		return nil
	}
	maxDepth := m.MaxDepth
	if maxDepth == 0 {
		maxDepth = 16
	}
	minSize := m.MinIntervalSize
	if minSize == 0 {
		minSize = 1
	}

	var cuts []float64
	m.split(pairs, numClasses, maxDepth, minSize, &cuts)
	sort.Float64s(cuts)
	return cuts
}

// split recursively partitions pairs (sorted by value) and appends
// accepted cut points.
func (m MDLP) split(pairs []labeledValue, numClasses, depth, minSize int, cuts *[]float64) {
	if depth <= 0 || len(pairs) < 2*minSize {
		return
	}
	total := classCounts(pairs, numClasses)
	baseEnt := entropyOf(total)
	if stats.IsZero(baseEnt) {
		return // pure node
	}
	n := float64(len(pairs))

	bestIdx := -1
	bestEnt := math.Inf(1)
	left := make([]int64, numClasses)
	right := append([]int64(nil), total...)
	for i := 0; i < len(pairs)-1; i++ {
		c := pairs[i].c
		left[c]++
		right[c]--
		// Candidate boundaries lie between distinct adjacent values only.
		if stats.SameValue(pairs[i].v, pairs[i+1].v) {
			continue
		}
		nl := float64(i + 1)
		nr := n - nl
		if int(nl) < minSize || int(nr) < minSize {
			continue
		}
		ent := nl/n*entropyOf(left) + nr/n*entropyOf(right)
		if ent < bestEnt {
			bestEnt = ent
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return
	}

	// MDL acceptance criterion (Fayyad & Irani 1993).
	gain := baseEnt - bestEnt
	leftPart := pairs[:bestIdx+1]
	rightPart := pairs[bestIdx+1:]
	k := liveClasses(classCounts(pairs, numClasses))
	k1 := liveClasses(classCounts(leftPart, numClasses))
	k2 := liveClasses(classCounts(rightPart, numClasses))
	entL := entropyOf(classCounts(leftPart, numClasses))
	entR := entropyOf(classCounts(rightPart, numClasses))
	delta := math.Log2(math.Pow(3, float64(k))-2) - (float64(k)*baseEnt - float64(k1)*entL - float64(k2)*entR)
	threshold := (math.Log2(n-1) + delta) / n
	if gain <= threshold {
		return
	}

	cut := (pairs[bestIdx].v + pairs[bestIdx+1].v) / 2
	*cuts = append(*cuts, cut)
	m.split(leftPart, numClasses, depth-1, minSize, cuts)
	m.split(rightPart, numClasses, depth-1, minSize, cuts)
}

func classCounts(pairs []labeledValue, numClasses int) []int64 {
	counts := make([]int64, numClasses)
	for _, p := range pairs {
		counts[p.c]++
	}
	return counts
}

func liveClasses(counts []int64) int {
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	return k
}

func entropyOf(counts []int64) float64 {
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	if stats.IsZero(total) {
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

// IntervalLabel formats the half-open interval a value in bin i of the
// given cuts belongs to, e.g. "(-inf,3.5]", "(3.5,7]", "(7,+inf)".
func IntervalLabel(cuts []float64, bin int) string {
	format := func(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }
	switch {
	case len(cuts) == 0:
		return "(-inf,+inf)"
	case bin <= 0:
		return "(-inf," + format(cuts[0]) + "]"
	case bin >= len(cuts):
		return "(" + format(cuts[len(cuts)-1]) + ",+inf)"
	default:
		return "(" + format(cuts[bin-1]) + "," + format(cuts[bin]) + "]"
	}
}

// BinOf returns the bin index of v for the given sorted cuts:
// bin i covers (cuts[i-1], cuts[i]].
func BinOf(cuts []float64, v float64) int {
	// Binary search for the first cut >= v.
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if cuts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Apply discretizes every continuous attribute of ds using d and returns
// a fully categorical dataset. Interval labels become the dictionary of
// each discretized attribute, in ascending interval order, so ordinal
// structure (used by the trend miner) is preserved. The mapping of each
// attribute is returned for reporting. The result shares ds's
// categorical columns (dataset.Derive): only the continuous columns
// are binned into new storage.
func Apply(ds *dataset.Dataset, d Discretizer) (*dataset.Dataset, map[string][]float64, error) {
	cuts, err := FindCuts(ds, d)
	if err != nil {
		return nil, nil, err
	}
	out, err := Bin(ds, cuts)
	if err != nil {
		return nil, nil, err
	}
	return out, cuts, nil
}

// FindCuts runs d over every continuous attribute of ds, in schema
// order, and returns the cut points by attribute name.
func FindCuts(ds *dataset.Dataset, d Discretizer) (map[string][]float64, error) {
	var classes []int32
	cuts := make(map[string][]float64)
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.Column(i)
		if col.Kind == dataset.Categorical {
			continue
		}
		if classes == nil {
			classes = ds.Column(ds.ClassIndex()).Codes.Int32s()
		}
		c, err := d.Cuts(col.Values, classes, ds.NumClasses())
		if err != nil {
			return nil, fmt.Errorf("discretize: attribute %q: %w", ds.Attr(i).Name, err)
		}
		cuts[ds.Attr(i).Name] = c
	}
	return cuts, nil
}

// Bin returns ds with every continuous attribute binned through its
// cuts (one interval per bin, missing values staying missing), column
// by column, each at the code width its interval dictionary needs: one
// byte per row up to 254 cuts. The categorical columns are not copied:
// the result is a dataset.Derive of ds and shares them.
func Bin(ds *dataset.Dataset, cuts map[string][]float64) (*dataset.Dataset, error) {
	binned := make([]dataset.Column, ds.NumAttrs())
	for i := range binned {
		col := ds.Column(i)
		if col.Kind == dataset.Categorical {
			continue
		}
		c, ok := cuts[ds.Attr(i).Name]
		if !ok {
			return nil, fmt.Errorf("discretize: no cuts for continuous attribute %q", ds.Attr(i).Name)
		}
		dict := dataset.NewDictionary()
		for bin := 0; bin <= len(c); bin++ {
			dict.Code(IntervalLabel(c, bin))
		}
		codes := dataset.MakeCodes(len(col.Values), dict.Len())
		for r, v := range col.Values {
			if !math.IsNaN(v) {
				codes.Set(r, int32(BinOf(c, v)))
			}
		}
		binned[i] = dataset.Column{Kind: dataset.Categorical, Codes: codes, Dict: dict}
	}
	return ds.Derive(binned)
}
