package compare

import (
	"context"
	"errors"
	"fmt"

	"opmap/internal/dataset"
)

// Batch comparison support. A sweep or a one-vs-rest run over every
// value of an attribute knows its complete cube working set before the
// first comparison starts: the split attribute's 1-D cube, one pair
// cube per candidate attribute, and (for one-vs-rest) each candidate's
// 1-D marginal. Declaring that set through engine.LazySource.Cubes lets
// a lazy source materialize every missing cube from ONE shared dataset
// scan (rulecube.BuildMany) instead of one scan per cube.

// prefetchPairs bulk-materializes the split attribute's 1-D cube and
// the (split, candidate) pair cube for every candidate — plus each
// candidate's own 1-D marginal when withMarginals is set (the
// one-vs-rest table needs it). Candidate-list validation errors are
// returned; anything else is best-effort: attributes outside the
// source's served set are left out, and a failed bulk build is ignored,
// so the sequential loop reproduces any real failure with its usual
// shape (and partial modes can still degrade per item).
func (c *Comparator) prefetchPairs(ctx context.Context, attr int, explicit []int, withMarginals bool) error {
	attrs, err := resolveRankAttrs(c.ds, attr, explicit)
	if err != nil {
		return err
	}
	reqs := batchReqsFor(c.src.Attrs(), attr, attrs, withMarginals)
	if reqs == nil {
		return nil // let the sequential path report the unavailable attribute
	}
	if _, err := c.src.Cubes(ctx, reqs); err != nil {
		return nil // best-effort: the per-cube path will surface real failures
	}
	return nil
}

// annotateSkippedValues marks the value range [from, card) as skipped
// with one shared reason — the tail a partial run never reached.
func annotateSkippedValues(res *OneVsRestAllResult, dict *dataset.Dictionary, from, card int, reason string) {
	for v := from; v < card; v++ {
		res.Skipped = append(res.Skipped, ItemError{Item: dict.Label(int32(v)), Err: reason})
	}
}

// batchReqsFor assembles the bulk cube request list for a fan-out over
// attr ranking attrs: the split attribute's 1-D cube, each served
// candidate's pair cube, and (withMarginals) its 1-D marginal. A nil
// return means the split attribute itself is not served.
func batchReqsFor(servedList []int, attr int, attrs []int, withMarginals bool) [][]int {
	served := make(map[int]bool, len(servedList))
	for _, a := range servedList {
		served[a] = true
	}
	if !served[attr] {
		return nil
	}
	reqs := make([][]int, 0, 2*len(attrs)+1)
	reqs = append(reqs, []int{attr})
	for _, ai := range attrs {
		if !served[ai] {
			continue
		}
		reqs = append(reqs, []int{attr, ai})
		if withMarginals {
			reqs = append(reqs, []int{ai})
		}
	}
	return reqs
}

// OneVsRestAllOptions configures a one-vs-rest comparison over every
// value of the split attribute.
type OneVsRestAllOptions struct {
	// Compare tunes each per-value one-vs-rest ranking.
	Compare Options
}

// OneVsRestAllResult aggregates the one-vs-rest rankings of every value
// of one attribute.
type OneVsRestAllResult struct {
	// Attr is the split attribute's index.
	Attr int
	// Values, Labels and Results are parallel, in ascending value-code
	// order: one entry per value whose one-vs-rest comparison is
	// defined on the data.
	Values  []int32
	Labels  []string
	Results []*Result
	// Skipped annotates the values whose comparison is undefined on
	// this data (ErrValueUndefined) — or, on a degraded partial run,
	// was not attempted before the context expired.
	Skipped []ItemError
	// Partial is set when the context expired mid-run and
	// Compare.PartialOnDeadline allowed degradation, either between
	// values (the rest are annotated in Skipped) or inside one value's
	// ranking (that Result carries its own Partial flag).
	Partial bool
}

// OneVsRestAll runs OneVsRest for every value of attr against the
// class, skipping values whose comparison is undefined on the data
// (degenerate splits, zero-confidence sides, …) instead of failing.
func (c *Comparator) OneVsRestAll(attr int, class int32, opts OneVsRestAllOptions) (*OneVsRestAllResult, error) {
	return c.OneVsRestAllContext(context.Background(), attr, class, opts)
}

// OneVsRestAllContext is OneVsRestAll under a context. Its full cube
// working set is declared up front so a lazy source serves the whole
// run from one shared dataset scan. With Compare.PartialOnDeadline set,
// a context that expires mid-run yields the values ranked so far with
// Partial set and the rest annotated in Skipped; otherwise the call
// fails with the first error.
func (c *Comparator) OneVsRestAllContext(ctx context.Context, attr int, class int32, opts OneVsRestAllOptions) (*OneVsRestAllResult, error) {
	ds := c.ds
	if attr < 0 || attr >= ds.NumAttrs() || attr == ds.ClassIndex() {
		return nil, fmt.Errorf("compare: invalid comparison attribute %d", attr)
	}
	if class < 0 || int(class) >= ds.NumClasses() {
		return nil, fmt.Errorf("compare: class %d out of range [0,%d)", class, ds.NumClasses())
	}
	// The prefetch also validates the candidate list, so a bad explicit
	// list fails before any value is ranked.
	if err := c.prefetchPairs(ctx, attr, opts.Compare.Attrs, true); err != nil {
		return nil, err
	}
	dict := ds.Column(attr).Dict
	res := &OneVsRestAllResult{Attr: attr}
	card := ds.Cardinality(attr)
	annotateRest := func(from int, reason string) {
		annotateSkippedValues(res, dict, from, card, reason)
	}
	for v := 0; v < card; v++ {
		if err := ctx.Err(); err != nil {
			if !opts.Compare.PartialOnDeadline {
				return nil, err
			}
			res.Partial = true
			annotateRest(v, err.Error())
			break
		}
		label := dict.Label(int32(v))
		one, err := c.OneVsRestContext(ctx, OneVsRestInput{Attr: attr, Value: int32(v), Class: class}, opts.Compare)
		switch {
		case err == nil:
			res.Values = append(res.Values, int32(v))
			res.Labels = append(res.Labels, label)
			res.Results = append(res.Results, one)
			res.Partial = res.Partial || one.Partial
		case errors.Is(err, ErrValueUndefined):
			res.Skipped = append(res.Skipped, ItemError{Item: label, Err: err.Error()})
		case ctx.Err() != nil && opts.Compare.PartialOnDeadline:
			res.Partial = true
			res.Skipped = append(res.Skipped, ItemError{Item: label, Err: err.Error()})
			annotateRest(v+1, ctx.Err().Error())
			return res, nil
		default:
			return nil, fmt.Errorf("compare: one-vs-rest %s=%s: %w", ds.Attr(attr).Name, label, err)
		}
	}
	return res, nil
}
