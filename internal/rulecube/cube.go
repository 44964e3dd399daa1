// Package rulecube implements rule cubes (Section III.B of the paper): a
// rule cube over attributes {A_i1..A_ip} plus the class attribute is a
// (p+1)-dimensional array whose cell (v1..vp, c) holds the support count
// of the rule A_i1=v1, .., A_ip=vp -> C=c. Mining with zero minimum
// support/confidence corresponds to fully counting the array, which
// removes holes from the knowledge space. OLAP-style slice, dice and
// roll-up operations navigate cubes. StoreRequests lists the 2-D and
// 3-D cubes the deployed Opportunity Map materializes; the engine
// (internal/engine) pins them, and snapshots persist them.
package rulecube

import (
	"fmt"
	"math"
	"sort"

	"opmap/internal/car"
	"opmap/internal/dataset"
)

// Cube is a rule cube: p condition dimensions plus the class dimension.
type Cube struct {
	attrIdx    []int                 // dataset attribute indices of the p condition dims
	attrNames  []string              // names of the condition dims
	dicts      []*dataset.Dictionary // value dictionaries of the condition dims
	classDict  *dataset.Dictionary
	dims       []int // cardinality of each condition dim
	numClasses int
	counts     []int64 // row-major: (((v1*dim2)+v2)...)*numClasses + class
	total      int64   // total records represented (sum of all cells)
}

// NumDims returns the number of condition dimensions p (the cube has
// p+1 dimensions counting the class).
func (c *Cube) NumDims() int { return len(c.dims) }

// AttrIndices returns the dataset attribute indices of the condition
// dimensions, in cube order. The caller must not modify the slice.
func (c *Cube) AttrIndices() []int { return c.attrIdx }

// AttrNames returns the names of the condition dimensions.
func (c *Cube) AttrNames() []string { return c.attrNames }

// Dim returns the cardinality of condition dimension pos.
func (c *Cube) Dim(pos int) int { return c.dims[pos] }

// Dict returns the value dictionary of condition dimension pos.
func (c *Cube) Dict(pos int) *dataset.Dictionary { return c.dicts[pos] }

// ClassDict returns the class dictionary.
func (c *Cube) ClassDict() *dataset.Dictionary { return c.classDict }

// NumClasses returns the number of class values.
func (c *Cube) NumClasses() int { return c.numClasses }

// Total returns the total record count in the cube.
func (c *Cube) Total() int64 { return c.total }

// offset computes the flat index for the given cell coordinates.
func (c *Cube) offset(values []int32, class int32) (int, error) {
	if len(values) != len(c.dims) {
		return 0, fmt.Errorf("rulecube: got %d coordinates for a %d-dimensional cube", len(values), len(c.dims))
	}
	idx := 0
	for i, v := range values {
		if v < 0 || int(v) >= c.dims[i] {
			// Name the offending attribute: "coordinate 1" means nothing
			// to a caller holding a store of hundreds of cubes.
			return 0, fmt.Errorf("rulecube: coordinate %d (attribute %q) = %d out of range [0,%d)", i, c.attrNames[i], v, c.dims[i])
		}
		idx = idx*c.dims[i] + int(v)
	}
	if class < 0 || int(class) >= c.numClasses {
		return 0, fmt.Errorf("rulecube: class %d out of range [0,%d)", class, c.numClasses)
	}
	return idx*c.numClasses + int(class), nil
}

// Count returns the support count of the cell (values..., class): the
// number of records with those attribute values and that class.
func (c *Cube) Count(values []int32, class int32) (int64, error) {
	off, err := c.offset(values, class)
	if err != nil {
		return 0, err
	}
	return c.counts[off], nil
}

// CondCount returns sup(values) summed over all classes — the
// denominator of Eq. (1).
func (c *Cube) CondCount(values []int32) (int64, error) {
	off, err := c.offset(values, 0)
	if err != nil {
		return 0, err
	}
	var s int64
	for k := 0; k < c.numClasses; k++ {
		s += c.counts[off+k]
	}
	return s, nil
}

// Support returns the relative support count/total of the cell.
func (c *Cube) Support(values []int32, class int32) (float64, error) {
	n, err := c.Count(values, class)
	if err != nil {
		return 0, err
	}
	if c.total == 0 {
		return 0, nil
	}
	return float64(n) / float64(c.total), nil
}

// Confidence computes Eq. (1): conf(values -> class) =
// sup(values, class) / Σ_j sup(values, c_j). Empty denominators yield 0,
// matching the paper's Fig. 1 discussion (zero-count rules have
// confidence 0).
func (c *Cube) Confidence(values []int32, class int32) (float64, error) {
	num, err := c.Count(values, class)
	if err != nil {
		return 0, err
	}
	den, err := c.CondCount(values)
	if err != nil {
		return 0, err
	}
	if den == 0 {
		return 0, nil
	}
	return float64(num) / float64(den), nil
}

// Rule materializes the cell (values..., class) as a car.Rule.
func (c *Cube) Rule(values []int32, class int32) (car.Rule, error) {
	sup, err := c.Count(values, class)
	if err != nil {
		return car.Rule{}, err
	}
	cond, err := c.CondCount(values)
	if err != nil {
		return car.Rule{}, err
	}
	conds := make([]car.Condition, len(values))
	for i, v := range values {
		conds[i] = car.Condition{Attr: c.attrIdx[i], Value: v}
	}
	return car.Rule{Conditions: conds, Class: class, SupCount: sup, CondCount: cond, Total: c.total}, nil
}

// Slice fixes condition dimension pos to the given value and returns the
// resulting cube with one fewer dimension (the OLAP slice of Section
// III.B; comparing two phones is two slices of a 3-D cube).
func (c *Cube) Slice(pos int, value int32) (*Cube, error) {
	if pos < 0 || pos >= len(c.dims) {
		return nil, fmt.Errorf("rulecube: slice position %d out of range", pos)
	}
	if value < 0 || int(value) >= c.dims[pos] {
		return nil, fmt.Errorf("rulecube: slice value %d out of range [0,%d)", value, c.dims[pos])
	}
	out := c.dropDim(pos)
	rest := make([]int32, 0, len(c.dims)-1)
	c.forEach(func(values []int32, class int32, n int64) {
		if values[pos] != value || n == 0 {
			return
		}
		rest = dropAtInto(rest, values, pos)
		off, _ := out.offset(rest, class)
		out.counts[off] += n
		out.total += n
	})
	return out, nil
}

// Dice restricts condition dimension pos to a subset of values,
// re-encoding that dimension to the chosen values in the given order.
func (c *Cube) Dice(pos int, values []int32) (*Cube, error) {
	if pos < 0 || pos >= len(c.dims) {
		return nil, fmt.Errorf("rulecube: dice position %d out of range", pos)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("rulecube: dice needs at least one value")
	}
	remap := make(map[int32]int32, len(values))
	dict := dataset.NewDictionary()
	for i, v := range values {
		if v < 0 || int(v) >= c.dims[pos] {
			return nil, fmt.Errorf("rulecube: dice value %d out of range [0,%d)", v, c.dims[pos])
		}
		if _, dup := remap[v]; dup {
			return nil, fmt.Errorf("rulecube: duplicate dice value %d", v)
		}
		remap[v] = int32(i)
		dict.Code(c.dicts[pos].Label(v))
	}
	out := &Cube{
		attrIdx:    append([]int(nil), c.attrIdx...),
		attrNames:  append([]string(nil), c.attrNames...),
		dicts:      append([]*dataset.Dictionary(nil), c.dicts...),
		classDict:  c.classDict,
		numClasses: c.numClasses,
		dims:       append([]int(nil), c.dims...),
	}
	out.dims[pos] = len(values)
	out.dicts[pos] = dict
	size := out.numClasses
	for _, d := range out.dims {
		size *= d
	}
	out.counts = make([]int64, size)
	mapped := make([]int32, len(c.dims))
	c.forEach(func(vals []int32, class int32, n int64) {
		if n == 0 {
			return
		}
		nv, ok := remap[vals[pos]]
		if !ok {
			return
		}
		copy(mapped, vals)
		mapped[pos] = nv
		off, _ := out.offset(mapped, class)
		out.counts[off] += n
		out.total += n
	})
	return out, nil
}

// Rollup marginalizes condition dimension pos out of the cube (the OLAP
// roll-up; rule cubes have a single aggregation level, so roll-up simply
// sums the dimension away).
func (c *Cube) Rollup(pos int) (*Cube, error) {
	if pos < 0 || pos >= len(c.dims) {
		return nil, fmt.Errorf("rulecube: rollup position %d out of range", pos)
	}
	out := c.dropDim(pos)
	rest := make([]int32, 0, len(c.dims)-1)
	c.forEach(func(values []int32, class int32, n int64) {
		if n == 0 {
			return
		}
		rest = dropAtInto(rest, values, pos)
		off, _ := out.offset(rest, class)
		out.counts[off] += n
		out.total += n
	})
	return out, nil
}

// dropDim builds an empty cube lacking condition dimension pos.
func (c *Cube) dropDim(pos int) *Cube {
	out := &Cube{
		classDict:  c.classDict,
		numClasses: c.numClasses,
	}
	size := c.numClasses
	for i := range c.dims {
		if i == pos {
			continue
		}
		out.attrIdx = append(out.attrIdx, c.attrIdx[i])
		out.attrNames = append(out.attrNames, c.attrNames[i])
		out.dicts = append(out.dicts, c.dicts[i])
		out.dims = append(out.dims, c.dims[i])
		size *= c.dims[i]
	}
	out.counts = make([]int64, size)
	return out
}

// dropAtInto writes values minus position pos into dst's backing array
// and returns the filled slice. Slice and Rollup call it once per cube
// cell; reusing one scratch buffer across the whole pass keeps the
// hot loop allocation-free.
func dropAtInto(dst, values []int32, pos int) []int32 {
	dst = append(dst[:0], values[:pos]...)
	return append(dst, values[pos+1:]...)
}

// forEach visits every cell of the cube.
func (c *Cube) forEach(f func(values []int32, class int32, count int64)) {
	values := make([]int32, len(c.dims))
	var rec func(dim, base int)
	rec = func(dim, base int) {
		if dim == len(c.dims) {
			for k := 0; k < c.numClasses; k++ {
				f(values, int32(k), c.counts[base*c.numClasses+k])
			}
			return
		}
		for v := 0; v < c.dims[dim]; v++ {
			values[dim] = int32(v)
			rec(dim+1, base*c.dims[dim]+v)
		}
	}
	rec(0, 0)
}

// ForEach exposes cube cell iteration to other packages. The values
// slice is reused between calls; callers must copy it to retain it.
func (c *Cube) ForEach(f func(values []int32, class int32, count int64)) { c.forEach(f) }

// ClassMarginals returns the per-class record totals of the cube.
func (c *Cube) ClassMarginals() []int64 {
	out := make([]int64, c.numClasses)
	for i, n := range c.counts {
		out[i%c.numClasses] += n
	}
	return out
}

// ValueMarginals returns the per-value record totals of condition
// dimension pos (summed over all other dimensions and classes).
func (c *Cube) ValueMarginals(pos int) ([]int64, error) {
	if pos < 0 || pos >= len(c.dims) {
		return nil, fmt.Errorf("rulecube: position %d out of range", pos)
	}
	out := make([]int64, c.dims[pos])
	c.forEach(func(values []int32, _ int32, n int64) {
		out[values[pos]] += n
	})
	return out, nil
}

// ScaleFactors returns per-class visual scaling factors that equalize
// class prominence (Section V.B: "The system supports automatic scaling
// among classes to address the class imbalance issue"). The factor for
// class k is maxCount/count_k; empty classes get factor 0.
func (c *Cube) ScaleFactors() []float64 {
	marg := c.ClassMarginals()
	var max int64
	for _, m := range marg {
		if m > max {
			max = m
		}
	}
	out := make([]float64, len(marg))
	if max == 0 {
		return out
	}
	for k, m := range marg {
		if m > 0 {
			out[k] = float64(max) / float64(m)
		}
	}
	return out
}

// RuleCount returns the number of rules the cube represents: the number
// of cells (Fig. 1 represents 3×4×2 = 24 rules). The product saturates
// at math.MaxInt64 — a cube whose declared dims multiply past the
// int64 range reports the ceiling rather than a wrapped negative, so
// cache byte accounting built on it can never go negative.
func (c *Cube) RuleCount() int64 {
	n := int64(c.numClasses)
	if n <= 0 {
		n = 1
	}
	for _, d := range c.dims {
		card := int64(d)
		if card <= 0 {
			card = 1
		}
		if n > math.MaxInt64/card {
			return math.MaxInt64
		}
		n *= card
	}
	return n
}

// Rules materializes every cell as a car.Rule, in cell order. Intended
// for small cubes (display, tests); large cubes should use ForEach. A
// cell that cannot be materialized surfaces as the first error instead
// of being silently dropped from the slice.
func (c *Cube) Rules() ([]car.Rule, error) {
	n := c.RuleCount()
	if n > int64(len(c.counts)) {
		n = int64(len(c.counts))
	}
	out := make([]car.Rule, 0, n)
	var firstErr error
	c.forEach(func(values []int32, class int32, _ int64) {
		r, err := c.Rule(values, class)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		out = append(out, r)
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// SizeBytes approximates the memory held by the cube's count array
// (8 bytes per cell). Dictionaries and headers are shared with the
// dataset and not charged here; this is the figure cache budgets
// account in. Like RuleCount it saturates at math.MaxInt64
// instead of wrapping negative.
func (c *Cube) SizeBytes() int64 {
	n := c.RuleCount()
	if n > math.MaxInt64/8 {
		return math.MaxInt64
	}
	return n * 8
}

// CubesBuiltCounterName is the counter advanced once per cube counted,
// so a /metrics scrape shows offline-build progress and totals.
const CubesBuiltCounterName = "opmap_cubes_built_total"

// StoreRequests lists the cubes the deployed system precomputes over
// attrs ("we store all 3-dimensional rule cubes"), as BuildMany
// requests: the 1-D cube of every attribute, then every pair (a, b)
// with a < b in the sorted attrs.
func StoreRequests(attrs []int) [][]int {
	reqs := make([][]int, 0, len(attrs)+len(attrs)*(len(attrs)-1)/2)
	for _, a := range attrs {
		reqs = append(reqs, []int{a})
	}
	for i, a := range attrs {
		for _, b := range attrs[i+1:] {
			reqs = append(reqs, []int{a, b})
		}
	}
	return reqs
}

// NormalizeAttrs resolves a served attribute list: nil means every
// attribute except the class; an explicit list is copied, validated
// (in range, not the class, no duplicates) and sorted.
func NormalizeAttrs(ds *dataset.Dataset, attrs []int) ([]int, error) {
	if attrs == nil {
		for a := 0; a < ds.NumAttrs(); a++ {
			if a != ds.ClassIndex() {
				attrs = append(attrs, a)
			}
		}
		return attrs, nil
	}
	attrs = append([]int(nil), attrs...)
	sort.Ints(attrs)
	for i, a := range attrs {
		switch {
		case a < 0 || a >= ds.NumAttrs():
			return nil, fmt.Errorf("rulecube: attribute index %d out of range", a)
		case a == ds.ClassIndex():
			return nil, fmt.Errorf("rulecube: class attribute in attribute list")
		case i > 0 && attrs[i-1] == a:
			return nil, fmt.Errorf("rulecube: duplicate attribute %d", a)
		}
	}
	return attrs, nil
}

// Counts returns the cube's cells in row-major order, the class
// varying fastest: the layout FromCounts takes back. The caller must
// not modify the slice.
func (c *Cube) Counts() []int64 { return c.counts }

// FromCounts binds cells counted elsewhere (a snapshot's) to ds as the
// cube over attrs: dimensions, names and dictionaries come from ds, the
// cells in Counts order from counts, which the cube keeps. counts must
// hold exactly the cells the dimensions span — the class count times
// each attribute's cardinality (at least 1); the total is their sum.
func FromCounts(ds *dataset.Dataset, attrs []int, counts []int64) (*Cube, error) {
	c := &Cube{
		attrIdx:    append([]int(nil), attrs...),
		classDict:  ds.ClassDict(),
		numClasses: ds.NumClasses(),
		counts:     counts,
	}
	size := c.numClasses
	for _, a := range attrs {
		if a < 0 || a >= ds.NumAttrs() {
			return nil, fmt.Errorf("rulecube: attribute index %d out of range", a)
		}
		d := cubeDim(ds, a)
		c.dims = append(c.dims, d)
		c.attrNames = append(c.attrNames, ds.Attr(a).Name)
		c.dicts = append(c.dicts, ds.Column(a).Dict)
		size *= d
	}
	if len(counts) != size {
		return nil, fmt.Errorf("rulecube: %d cells for a cube of %d", len(counts), size)
	}
	for _, n := range counts {
		c.total += n
	}
	return c, nil
}
