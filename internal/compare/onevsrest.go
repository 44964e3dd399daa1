package compare

import (
	"context"
	"errors"
	"fmt"

	"opmap/internal/car"
	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/rulecube"
)

// ErrValueUndefined classifies one-vs-rest failures that are properties
// of the data rather than of the request: a degenerate split, a side
// below MinRuleSupport, a class absent from both sides, or an undefined
// confidence ratio. OneVsRestAll skips such values instead of failing
// the whole run; callers can test with errors.Is.
var ErrValueUndefined = errors.New("compare: value comparison undefined")

// undefinedError carries a specific message while matching
// ErrValueUndefined under errors.Is, so the long-standing error texts
// stay stable for callers that match on them.
type undefinedError struct{ msg string }

func (e *undefinedError) Error() string { return e.msg }

// Is makes errors.Is(err, ErrValueUndefined) true for every
// undefinedError without changing its message.
func (e *undefinedError) Is(target error) bool { return target == ErrValueUndefined }

func undefinedf(format string, args ...any) error {
	return &undefinedError{msg: fmt.Sprintf(format, args...)}
}

// One-vs-rest comparison. Section III.C of the paper notes the
// comparison capability is not only for product pairs: "we may find
// that in general calls in the morning tend to drop much more
// frequently than in the afternoon. Then, it is interesting to know
// what cause this poor performance in the morning." OneVsRest compares
// the sub-population A=v against the complement A≠v: D1/D2 are oriented
// so the higher-confidence side is D2 exactly as in the pairwise case,
// and the same measure (Eq. 1–3) ranks the explaining attributes.

// OneVsRestInput selects a value of an attribute and the class of
// interest; the second sub-population is everything else.
type OneVsRestInput struct {
	Attr  int
	Value int32
	Class int32
}

// OneVsRest runs the comparison of A=v versus A≠v over the cube store.
// Missing values of A are excluded from both sub-populations (they are
// not counted in cubes).
func (c *Comparator) OneVsRest(in OneVsRestInput, opts Options) (*Result, error) {
	return c.OneVsRestContext(context.Background(), in, opts)
}

// OneVsRestContext is OneVsRest under a context, checked once per
// candidate attribute. With opts.PartialOnDeadline set, a context that
// expires mid-ranking yields the attributes scored so far with
// Result.Partial set and the rest annotated in Result.Unscored;
// otherwise the call fails with the context's error.
func (c *Comparator) OneVsRestContext(ctx context.Context, in OneVsRestInput, opts Options) (*Result, error) {
	attrs, err := resolveRankAttrs(c.ds, in.Attr, opts.Attrs)
	if err != nil {
		return nil, err
	}
	return c.oneVsRest(ctx, in, opts, attrs)
}

// oneVsRest is OneVsRestContext over the candidate list attrs, resolved
// from opts.Attrs by resolveRankAttrs: once per call, or once for a
// whole OneVsRestAll sweep.
func (c *Comparator) oneVsRest(ctx context.Context, in OneVsRestInput, opts Options, attrs []int) (*Result, error) {
	ds := c.ds
	if in.Attr < 0 || in.Attr >= ds.NumAttrs() || in.Attr == ds.ClassIndex() {
		return nil, fmt.Errorf("compare: invalid comparison attribute %d", in.Attr)
	}
	card := ds.Cardinality(in.Attr)
	if in.Value < 0 || int(in.Value) >= card {
		return nil, fmt.Errorf("compare: value %d out of range [0,%d)", in.Value, card)
	}
	if in.Class < 0 || int(in.Class) >= ds.NumClasses() {
		return nil, fmt.Errorf("compare: class %d out of range", in.Class)
	}
	cube, err := c.src.CubeN(ctx, []int{in.Attr})
	if err != nil {
		return nil, fmt.Errorf("compare: attribute %d unavailable: %w", in.Attr, err)
	}

	// Counts of the two sides from the 2-D cube.
	condV, err := cube.CondCount([]int32{in.Value})
	if err != nil {
		return nil, err
	}
	supV, err := cube.Count([]int32{in.Value}, in.Class)
	if err != nil {
		return nil, err
	}
	classTotals := cube.ClassMarginals()
	total := cube.Total()
	condRest := total - condV
	supRest := classTotals[in.Class] - supV

	if condV == 0 || condRest == 0 {
		return nil, undefinedf("compare: degenerate split (|D_v|=%d, |D_rest|=%d)", condV, condRest)
	}
	if opts.MinRuleSupport > 0 && (condV < opts.MinRuleSupport || condRest < opts.MinRuleSupport) {
		return nil, undefinedf("compare: sub-population below MinRuleSupport %d", opts.MinRuleSupport)
	}
	cfV := float64(supV) / float64(condV)
	cfRest := float64(supRest) / float64(condRest)
	if supV == 0 && supRest == 0 {
		return nil, undefinedf("compare: class %d absent from both sides", in.Class)
	}

	// Orient: sub-population 1 is the lower-confidence side.
	res := &Result{Options: opts}
	restIsHigh := cfRest >= cfV
	mkRule := func(cond, sup int64) carRule {
		return carRule{cond: cond, sup: sup}
	}
	lo, hi := mkRule(condV, supV), mkRule(condRest, supRest)
	if !restIsHigh {
		lo, hi = hi, lo
		res.Swapped = true
	}
	res.Cf1 = float64(lo.sup) / float64(lo.cond)
	res.Cf2 = float64(hi.sup) / float64(hi.cond)
	if lo.sup == 0 {
		return nil, undefinedf("compare: lower-confidence side has zero confidence; ratio undefined")
	}
	res.Ratio = res.Cf2 / res.Cf1
	// car.Rule cannot express the negated "rest" condition; both sides
	// carry the positive condition for display, and the counts tell the
	// sides apart (the value side has CondCount == condV).
	mk := func(r carRule) car.Rule {
		return car.Rule{
			Conditions: []car.Condition{{Attr: in.Attr, Value: in.Value}},
			Class:      in.Class,
			SupCount:   r.sup,
			CondCount:  r.cond,
			Total:      total,
		}
	}
	res.Rule1 = mk(lo)
	res.Rule2 = mk(hi)

	comp, err := newComputation(res, 0, 0)
	if err != nil {
		return nil, err
	}
	comp.reserve(ds, attrs)
	for i, ai := range attrs {
		if err := ctxOrFault(ctx, faultinject.SiteCompareAttr); err != nil {
			if !opts.PartialOnDeadline || ctx.Err() == nil {
				return nil, err
			}
			res.Partial = true
			for _, rest := range attrs[i:] {
				res.Unscored = append(res.Unscored, ItemError{
					Item: ds.Attr(rest).Name,
					Err:  err.Error(),
				})
			}
			break
		}
		pair, err := c.src.CubeN(ctx, []int{in.Attr, ai})
		if err != nil {
			return nil, fmt.Errorf("compare: pair cube (%d,%d) unavailable: %w", in.Attr, ai, err)
		}
		marginal, err := c.src.CubeN(ctx, []int{ai})
		if err != nil {
			return nil, fmt.Errorf("compare: attribute %d unavailable: %w", ai, err)
		}
		tab, err := comp.oneVsRestTable(pair, marginal, in.Attr, ai, in.Value, in.Class, restIsHigh)
		if err != nil {
			return nil, err
		}
		comp.addAttribute(ds, ai, tab)
	}
	comp.finish()
	return res, nil
}

// carRule is a minimal count pair used during orientation.
type carRule struct{ cond, sup int64 }

// defaultRankAttrs lists every attribute except the split attribute and
// the class, the default candidate set for ranking.
func defaultRankAttrs(ds *dataset.Dataset, splitAttr int) []int {
	attrs := make([]int, 0, ds.NumAttrs())
	for a := 0; a < ds.NumAttrs(); a++ {
		if a != splitAttr && a != ds.ClassIndex() {
			attrs = append(attrs, a)
		}
	}
	return attrs
}

// oneVsRestTable builds the per-value contingency rows of candidate
// attribute ai for the split A=v vs A≠v: the "value" side comes from the
// pair cube sliced at v; the "rest" side is the candidate's marginal
// cube minus the value side. Ranges are checked once, then both sides
// are read from the cubes' cells. The table is the computation's
// scratch.
func (comp *computation) oneVsRestTable(pair, marginal *rulecube.Cube, a1, ai int, v, class int32, restIsHigh bool) (*valueTable, error) {
	idx := pair.AttrIndices()
	if len(idx) != 2 || !(idx[0] == a1 && idx[1] == ai || idx[0] == ai && idx[1] == a1) {
		return nil, fmt.Errorf("compare: cube dimensions %v do not match (%d,%d)", idx, a1, ai)
	}
	side, err := rulecube.SliceOf(pair, a1, v)
	if err != nil {
		return nil, err
	}
	card, nc := side.Dim(), marginal.NumClasses()
	if class < 0 || int(class) >= pair.NumClasses() || int(class) >= nc {
		return nil, fmt.Errorf("compare: class %d out of range of cubes with %d and %d classes", class, pair.NumClasses(), nc)
	}
	if mi := marginal.AttrIndices(); len(mi) != 1 || mi[0] != ai || marginal.Dim(0) < card {
		return nil, fmt.Errorf("compare: marginal cube %v does not cover the %d values of attribute %d", mi, card, ai)
	}
	t := comp.table(card)
	// The value side goes where the lower-confidence side belongs; the
	// rest is the marginal minus it.
	vn, vc, rn, rc := t.n1, t.c1, t.n2, t.c2
	if !restIsHigh {
		vn, vc, rn, rc = rn, rc, vn, vc
	}
	side.Fill(class, vn, vc)
	cells := marginal.Counts()
	for k := range rn {
		row := cells[k*nc:][:nc]
		var all int64
		for _, c := range row {
			all += c
		}
		rn[k], rc[k] = all-vn[k], row[class]-vc[k]
	}
	return t, nil
}
