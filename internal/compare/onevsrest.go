package compare

import (
	"context"
	"errors"
	"fmt"

	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/rulecube"
)

// ErrValueUndefined classifies comparison failures that are properties
// of the data rather than of the request: a side below MinRuleSupport,
// an empty side, or a lower side of zero confidence (a class absent
// from both sides among them), where the ratio cf2/cf1 is undefined.
// Every comparison's preamble (orient) reports them; OneVsRestAll skips
// such values instead of failing the whole run. Callers can test with
// errors.Is.
var ErrValueUndefined = errors.New("compare: value comparison undefined")

// undefinedError carries a specific message while matching
// ErrValueUndefined under errors.Is, so each failure keeps its own
// text.
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
	// The value side's rule is a cell of the 1-D cube; the rest is the
	// cube's total minus it. car.Rule cannot express the negated "rest"
	// condition; both sides carry the positive condition for display,
	// and the counts tell the sides apart (the value side has CondCount
	// == |D_v|).
	value, err := cube.Rule([]int32{in.Value}, in.Class)
	if err != nil {
		return nil, err
	}
	rest := value
	rest.CondCount = cube.Total() - value.CondCount
	rest.SupCount = cube.ClassMarginals()[in.Class] - value.SupCount
	comp, err := orient(value, rest, opts)
	if err != nil {
		return nil, err
	}
	res := comp.result
	comp.reserve(ds, attrs)
	for i, ai := range attrs {
		if err := faultinject.Check(ctx, faultinject.SiteCompareAttr); err != nil {
			if !opts.PartialOnDeadline || ctx.Err() == nil {
				return nil, err
			}
			res.Partial = true
			for _, skipped := range attrs[i:] {
				res.Unscored = append(res.Unscored, ItemError{
					Item: ds.Attr(skipped).Name,
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
		tab, err := comp.oneVsRestTable(pair, marginal, in.Attr, ai, in.Value, in.Class)
		if err != nil {
			return nil, err
		}
		comp.addAttribute(ds, ai, tab)
	}
	comp.finish()
	return res, nil
}

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
// are read from the cubes' cells into the sides the preamble oriented
// them to. The table is the computation's scratch.
func (comp *computation) oneVsRestTable(pair, marginal *rulecube.Cube, a1, ai int, v, class int32) (*valueTable, error) {
	idx := pair.AttrIndices()
	if len(idx) != 2 || !(idx[0] == a1 && idx[1] == ai || idx[0] == ai && idx[1] == a1) {
		return nil, fmt.Errorf("compare: cube dimensions %v do not match (%d,%d)", idx, a1, ai)
	}
	side, err := rulecube.SlicesOf(pair, a1, v, v)
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
	// Side 1 is the value side unless the preamble swapped it to 2.
	vr := *t
	if comp.result.Swapped {
		vr = vr.flip()
	}
	side.Fill(0, class, vr.n1, vr.c1)
	cells := marginal.Counts()
	for k := range vr.n2 {
		row := cells[k*nc:][:nc]
		var all int64
		for _, c := range row {
			all += c
		}
		vr.n2[k], vr.c2[k] = all-vr.n1[k], row[class]-vr.c1[k]
	}
	return t, nil
}
