package compare

import (
	"context"
	"fmt"
	"math"
	"sort"

	"opmap/internal/faultinject"
	"opmap/internal/stats"
)

// Sweep runs the full screen-then-compare loop over an attribute: every
// significantly different value pair is compared, and the distinguishing
// attributes are aggregated across pairs. The paper's application cares
// about exactly this distinction — situations where "all phones or even
// a particular model of phones are more likely to fail" (Section I). An
// attribute that tops the ranking for *many* pairs points at a systemic
// cause (network, environment); one that only distinguishes a single
// pair points at that product.

// SweepOptions configures a sweep.
type SweepOptions struct {
	// Screen tunes the pair-screening stage.
	Screen ScreenOptions
	// Compare tunes each comparison.
	Compare Options
	// TopK is how many leading attributes of each comparison count as
	// "distinguishing" for the aggregation. Zero means 3.
	TopK int
	// MinScore ignores ranked attributes below this M when aggregating
	// (defaults to 0: any positive score counts).
	MinScore float64
	// Partial makes SweepContext return the pairs compared so far when
	// the context expires mid-sweep, annotating the skipped pairs in
	// SweepResult.Errors, instead of failing the whole sweep.
	Partial bool
}

// validate rejects option values the aggregation loop would otherwise
// misread silently: a negative TopK used to flow through topK() and
// terminate every per-pair aggregation immediately (an empty sweep with
// no error), and a NaN MinScore disables the score floor entirely
// because every comparison against NaN is false.
func (o SweepOptions) validate() error {
	if o.TopK < 0 {
		return fmt.Errorf("compare: negative TopK %d", o.TopK)
	}
	if math.IsNaN(o.MinScore) {
		return fmt.Errorf("compare: MinScore must not be NaN")
	}
	return nil
}

func (o SweepOptions) topK() int {
	if o.TopK == 0 {
		return 3
	}
	return o.TopK
}

// SweepAttribute aggregates one attribute's appearances across pair
// comparisons.
type SweepAttribute struct {
	Attr int
	Name string
	// Pairs is how many compared pairs ranked the attribute within the
	// sweep's TopK with M > MinScore.
	Pairs int
	// BestScore and BestPair identify the strongest single appearance.
	BestScore float64
	BestPair  [2]string
	// TotalScore sums M across qualifying appearances.
	TotalScore float64
}

// SweepResult is the aggregate of a sweep.
type SweepResult struct {
	// PairsCompared is the number of screened pairs that completed a
	// comparison (pairs with an undefined ratio are skipped).
	PairsCompared int
	PairsSkipped  int
	// Attributes lists aggregated distinguishing attributes, most
	// recurrent first (ties by total score).
	Attributes []SweepAttribute
	// Comparisons holds each pair's full result for drill-down, keyed in
	// screening order.
	Comparisons []*Result
	PairLabels  [][2]string
	// Partial is set when the sweep stopped early because the context
	// expired and SweepOptions.Partial allowed degradation; the pairs
	// that were not compared are annotated in Errors.
	Partial bool
	Errors  []ItemError
}

// SweepContext screens attr's value pairs on the class and compares
// every significant pair. The context is checked once per screened
// pair. When opts.Partial is set and the context expires mid-sweep the
// pairs compared so far are aggregated and returned with Partial set
// and the remaining pairs annotated in Errors; otherwise the first
// context or comparison error fails the sweep.
func (c *Comparator) SweepContext(ctx context.Context, attr int, class int32, opts SweepOptions) (*SweepResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// Resolve the candidate list once, for the prefetch and every pair.
	// Declare the sweep's full cube needs up front: the split
	// attribute's 1-D cube (screening and rule counting) plus every
	// (split, candidate) pair cube. A lazy source answers all cache
	// misses from one shared dataset scan; afterwards the loop below
	// only hits resident cubes.
	attrs, err := resolveRankAttrs(c.ds, attr, opts.Compare.Attrs)
	if err != nil {
		return nil, err
	}
	c.prefetchPairs(ctx, attr, attrs, false)
	pairs, err := c.ScreenPairsContext(ctx, attr, class, opts.Screen)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{}
	agg := make(map[int]*SweepAttribute)
	for i, p := range pairs {
		if stats.IsZero(p.Cf1) {
			res.PairsSkipped++ // ratio undefined; the comparator cannot take it
			continue
		}
		err := ctxOrFault(ctx, faultinject.SiteSweepPair)
		if err == nil {
			var cmp *Result
			cmp, err = c.compare(ctx, Input{Attr: attr, V1: p.V1, V2: p.V2, Class: class}, opts.Compare, attrs)
			if err == nil {
				res.PairsCompared++
				aggregatePair(res, agg, cmp, p.Label1, p.Label2, opts)
				continue
			}
		}
		if !opts.Partial {
			return nil, fmt.Errorf("compare: sweep pair (%s,%s): %w", p.Label1, p.Label2, err)
		}
		res.Partial = true
		res.Errors = append(res.Errors, ItemError{
			Item: p.Label1 + " vs " + p.Label2,
			Err:  err.Error(),
		})
		if ctx.Err() != nil {
			// The context is gone: annotate the rest without attempting them.
			for _, q := range pairs[i+1:] {
				if stats.IsZero(q.Cf1) {
					res.PairsSkipped++
					continue
				}
				res.Errors = append(res.Errors, ItemError{
					Item: q.Label1 + " vs " + q.Label2,
					Err:  ctx.Err().Error(),
				})
			}
			break
		}
	}
	finishSweep(res, agg)
	return res, nil
}

// aggregatePair folds one pair's comparison into the sweep aggregate.
func aggregatePair(res *SweepResult, agg map[int]*SweepAttribute, cmp *Result, label1, label2 string, opts SweepOptions) {
	res.Comparisons = append(res.Comparisons, cmp)
	res.PairLabels = append(res.PairLabels, [2]string{label1, label2})
	for rank, s := range cmp.Ranked {
		if rank >= opts.topK() || s.Score <= opts.MinScore {
			break
		}
		a := agg[s.Attr]
		if a == nil {
			a = &SweepAttribute{Attr: s.Attr, Name: s.Name}
			agg[s.Attr] = a
		}
		a.Pairs++
		a.TotalScore += s.Score
		if s.Score > a.BestScore {
			a.BestScore = s.Score
			a.BestPair = [2]string{label1, label2}
		}
	}
}

// finishSweep flattens and orders the aggregate; it runs on both the
// complete and the partial path so degraded results stay sorted.
func finishSweep(res *SweepResult, agg map[int]*SweepAttribute) {
	for _, a := range agg {
		res.Attributes = append(res.Attributes, *a)
	}
	sort.SliceStable(res.Attributes, func(i, j int) bool {
		if res.Attributes[i].Pairs != res.Attributes[j].Pairs {
			return res.Attributes[i].Pairs > res.Attributes[j].Pairs
		}
		switch {
		case res.Attributes[i].TotalScore > res.Attributes[j].TotalScore:
			return true
		case res.Attributes[j].TotalScore > res.Attributes[i].TotalScore:
			return false
		}
		return res.Attributes[i].Name < res.Attributes[j].Name
	})
}
