package opmap

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"opmap/internal/car"
	"opmap/internal/compare"
	"opmap/internal/dataset"
	"opmap/internal/gi"
	"opmap/internal/obsv"
	"opmap/internal/report"
)

// This file holds the Session capabilities beyond the paper's core
// pipeline: pair screening, one-vs-rest comparison, cube persistence,
// and Markdown report generation. Each is motivated directly by the
// paper's deployment narrative (see the respective internal packages).

// PairCandidate is a value pair of an attribute whose class confidences
// differ significantly — a candidate for Compare.
type PairCandidate struct {
	Attr           string
	Value1, Value2 string // oriented: Value1 has the lower confidence
	Cf1, Cf2       float64
	N1, N2         int64
	Ratio          float64
	Z              float64
	PValue         float64
	// QValue is PValue adjusted for the number of pairs screened
	// (Benjamini–Hochberg).
	QValue float64
}

// ScreenPairs ranks value pairs of attr by the statistical significance
// of their confidence gap on the class — automating the "spot two phones
// with very different drop rates" step that precedes every comparison.
// maxPairs ≤ 0 returns all significant pairs.
func (s *Session) ScreenPairs(attr, class string, maxPairs int) ([]PairCandidate, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	a := s.ds.AttrIndex(attr)
	if a < 0 {
		return nil, fmt.Errorf("opmap: unknown attribute %q", attr)
	}
	cls, ok := s.ds.ClassDict().Lookup(class)
	if !ok {
		return nil, fmt.Errorf("opmap: unknown class %q", class)
	}
	opts := compare.ScreenOptions{}
	if maxPairs > 0 {
		opts.MaxPairs = maxPairs
	}
	pairs, err := compare.NewSource(src).ScreenPairs(a, cls, opts)
	if err != nil {
		return nil, err
	}
	out := make([]PairCandidate, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, PairCandidate{
			Attr:   attr,
			Value1: p.Label1,
			Value2: p.Label2,
			Cf1:    p.Cf1,
			Cf2:    p.Cf2,
			N1:     p.N1,
			N2:     p.N2,
			Ratio:  p.Ratio,
			Z:      p.Z,
			PValue: p.PValue,
			QValue: p.QValue,
		})
	}
	return out, nil
}

// CompareOneVsRest compares the sub-population attr=value against its
// complement attr≠value with respect to the class (Section III.C's
// "morning calls vs the rest" use case). Label2 of the result reads
// "rest" when the complement is the higher-confidence side.
func (s *Session) CompareOneVsRest(attr, value, class string, opts CompareOptions) (*Comparison, error) {
	return s.CompareOneVsRestContext(context.Background(), attr, value, class, opts)
}

// CompareOneVsRestContext is CompareOneVsRest under a context. With
// opts.PartialOnDeadline set, a context that expires mid-ranking
// yields the attributes scored so far with Comparison.Partial set and
// the rest annotated in Comparison.Unscored; otherwise the call fails
// with ctx.Err().
func (s *Session) CompareOneVsRestContext(ctx context.Context, attr, value, class string, opts CompareOptions) (*Comparison, error) {
	defer obsv.Stage(obsv.StageCompareOneVsRest)()
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	a := s.ds.AttrIndex(attr)
	if a < 0 {
		return nil, fmt.Errorf("opmap: unknown attribute %q", attr)
	}
	v, ok := s.ds.Column(a).Dict.Lookup(value)
	if !ok {
		return nil, fmt.Errorf("opmap: attribute %q has no value %q", attr, value)
	}
	cls, ok := s.ds.ClassDict().Lookup(class)
	if !ok {
		return nil, fmt.Errorf("opmap: unknown class %q", class)
	}
	copts, err := s.compareOptions(opts)
	if err != nil {
		return nil, err
	}
	res, err := compare.NewSource(src).OneVsRestContext(ctx, compare.OneVsRestInput{Attr: a, Value: v, Class: cls}, copts)
	if err != nil {
		return nil, err
	}
	return oneVsRestComparison(attr, value, class, res), nil
}

// oneVsRestComparison wraps one internal one-vs-rest result as the
// public Comparison, naming the complement "rest" on whichever side
// the ranking oriented it.
func oneVsRestComparison(attr, value, class string, res *compare.Result) *Comparison {
	l1, l2 := value, "rest"
	if res.Swapped { // the named value is the higher-confidence side
		l1, l2 = "rest", value
	}
	return &Comparison{
		Attr:     attr,
		Label1:   l1,
		Label2:   l2,
		Cf1:      res.Cf1,
		Cf2:      res.Cf2,
		Ratio:    res.Ratio,
		Class:    class,
		Partial:  res.Partial,
		Unscored: toItemErrors(res.Unscored),
		res:      res,
	}
}

// OneVsRestAllResult aggregates CompareOneVsRestAll: one comparison per
// value of the attribute whose one-vs-rest split is defined on the
// data, plus the values that had to be skipped.
type OneVsRestAllResult struct {
	// Attr is the split attribute.
	Attr string
	// Comparisons holds one entry per compared value, in ascending
	// value order; each is the same shape CompareOneVsRest returns.
	Comparisons []*Comparison
	// Skipped annotates the values whose comparison is undefined on
	// this data (degenerate split, absent class, …) — or, on a partial
	// run, not attempted before the context expired.
	Skipped []ItemError
	// Partial is set when the context expired mid-run and
	// PartialOnDeadline allowed degradation.
	Partial bool
}

// CompareOneVsRestAll runs CompareOneVsRest for every value of attr in
// one call. Its complete cube working set is declared to the engine up
// front, so a lazy session answers the whole fan-out from a single
// shared dataset scan instead of one scan per cube; values whose
// comparison is undefined on the data are skipped, not fatal.
func (s *Session) CompareOneVsRestAll(attr, class string, opts CompareOptions) (*OneVsRestAllResult, error) {
	return s.CompareOneVsRestAllContext(context.Background(), attr, class, opts)
}

// CompareOneVsRestAllContext is CompareOneVsRestAll under a context.
// With opts.PartialOnDeadline set, a context that expires mid-run
// yields the values compared so far with Partial set and the rest
// annotated in Skipped; otherwise the call fails with the first error.
// Completed runs are memoized in the result cache, keyed like the
// other comparisons and invalidated by appends that touch a ranked
// attribute.
func (s *Session) CompareOneVsRestAllContext(ctx context.Context, attr, class string, opts CompareOptions) (*OneVsRestAllResult, error) {
	defer obsv.Stage(obsv.StageCompareOneVsRestAll)()
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	a := s.ds.AttrIndex(attr)
	if a < 0 {
		return nil, fmt.Errorf("opmap: unknown attribute %q", attr)
	}
	cls, ok := s.ds.ClassDict().Lookup(class)
	if !ok {
		return nil, fmt.Errorf("opmap: unknown class %q", class)
	}
	copts, err := s.compareOptions(opts)
	if err != nil {
		return nil, err
	}
	ver := s.results.Version()
	key := oneVsRestAllKey(a, cls, copts)
	if v, ok := s.results.Get(ver, key); ok {
		return s.wrapOneVsRestAll(attr, class, v.(*compare.OneVsRestAllResult)), nil
	}
	res, err := compare.NewSource(src).OneVsRestAllContext(ctx, a, cls, compare.OneVsRestAllOptions{Compare: copts})
	if err != nil {
		return nil, err
	}
	if !res.Partial {
		// Deps mirror compareDeps: an unrestricted run ranks every
		// attribute (nil deps = depends on all); a restricted one
		// depends on the split attribute plus the explicit candidates.
		s.results.PutDeps(ver, key, res, compareDeps(compare.Input{Attr: a}, copts))
	}
	return s.wrapOneVsRestAll(attr, class, res), nil
}

// wrapOneVsRestAll converts the internal all-values result to the
// public shape, one oneVsRestComparison per compared value.
func (s *Session) wrapOneVsRestAll(attr, class string, res *compare.OneVsRestAllResult) *OneVsRestAllResult {
	out := &OneVsRestAllResult{
		Attr:    attr,
		Skipped: toItemErrors(res.Skipped),
		Partial: res.Partial,
	}
	for i, r := range res.Results {
		out.Comparisons = append(out.Comparisons, oneVsRestComparison(attr, res.Labels[i], class, r))
	}
	return out
}

// CompareWhere runs the comparison restricted to records matching every
// condition in where (attribute name → value label): the drill-down
// step after a first comparison isolates the context of the problem
// ("compare the two phones again, but only for morning calls"). It
// scans the raw data, so it needs the dataset, not just cubes.
func (s *Session) CompareWhere(attr, v1, v2, class string, where map[string]string, opts CompareOptions) (*Comparison, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, err := s.working(); err != nil {
		return nil, err
	}
	in, copts, err := s.resolve(attr, v1, v2, class, opts)
	if err != nil {
		return nil, err
	}
	var fixed []car.Condition
	for name, val := range where {
		a := s.ds.AttrIndex(name)
		if a < 0 {
			return nil, fmt.Errorf("opmap: unknown attribute %q in where clause", name)
		}
		code, ok := s.ds.Column(a).Dict.Lookup(val)
		if !ok {
			return nil, fmt.Errorf("opmap: attribute %q has no value %q", name, val)
		}
		fixed = append(fixed, car.Condition{Attr: a, Value: code})
	}
	sort.Slice(fixed, func(i, j int) bool { return fixed[i].Attr < fixed[j].Attr })
	res, err := compare.ScanWhere(s.ds, fixed, in, copts)
	if err != nil {
		return nil, err
	}
	return s.wrapComparison(attr, class, in, res), nil
}

// SweepAttribute aggregates one attribute's appearances across the
// comparisons of a sweep.
type SweepAttribute struct {
	Name string
	// Pairs counts the compared pairs that ranked the attribute among
	// their top distinguishing attributes; a high count indicates a
	// systemic cause, a count of one a product-specific cause.
	Pairs      int
	BestScore  float64
	BestPair   [2]string
	TotalScore float64
}

// SweepResult is the aggregate of Sweep.
type SweepResult struct {
	PairsCompared int
	PairsSkipped  int
	Attributes    []SweepAttribute
	// Partial is set when the sweep stopped early because the context
	// expired (SweepPartial only); the pairs not compared are annotated
	// in Errors.
	Partial bool
	Errors  []ItemError
}

// Sweep screens every value pair of attr on the class and compares each
// significant pair, aggregating which attributes recur as the
// explanation — separating systemic causes (many pairs) from
// product-specific ones (one pair). maxPairs ≤ 0 compares every
// significant pair.
func (s *Session) Sweep(attr, class string, maxPairs int) (*SweepResult, error) {
	return s.SweepContext(context.Background(), attr, class, maxPairs)
}

// SweepContext is Sweep under a context. It is strict: cancellation
// mid-sweep fails with ctx.Err(). Use SweepPartial to degrade to a
// partial aggregate instead.
func (s *Session) SweepContext(ctx context.Context, attr, class string, maxPairs int) (*SweepResult, error) {
	return s.sweep(ctx, attr, class, maxPairs, false)
}

// SweepPartial is SweepContext with graceful degradation: when the
// context expires mid-sweep the pairs compared so far are aggregated
// and returned with SweepResult.Partial set and the skipped pairs
// annotated in SweepResult.Errors.
func (s *Session) SweepPartial(ctx context.Context, attr, class string, maxPairs int) (*SweepResult, error) {
	return s.sweep(ctx, attr, class, maxPairs, true)
}

func (s *Session) sweep(ctx context.Context, attr, class string, maxPairs int, partial bool) (*SweepResult, error) {
	defer obsv.Stage(obsv.StageSweep)()
	res, err := s.sweepInternal(ctx, attr, class, maxPairs, partial)
	if err != nil {
		return nil, err
	}
	return toSweepResult(res), nil
}

// toSweepResult converts the internal sweep result to the public type.
func toSweepResult(res *compare.SweepResult) *SweepResult {
	out := &SweepResult{
		PairsCompared: res.PairsCompared,
		PairsSkipped:  res.PairsSkipped,
		Partial:       res.Partial,
		Errors:        toItemErrors(res.Errors),
	}
	for _, sa := range res.Attributes {
		out.Attributes = append(out.Attributes, SweepAttribute{
			Name:       sa.Name,
			Pairs:      sa.Pairs,
			BestScore:  sa.BestScore,
			BestPair:   sa.BestPair,
			TotalScore: sa.TotalScore,
		})
	}
	return out
}

// sweepInternal resolves names, consults the result cache, and runs
// the screen-then-compare loop. A completed (non-partial) sweep is
// memoized; the partial flag is not part of the cache identity because
// it only changes degradation behaviour, never a completed result.
// The entry is stored with nil deps (depends-on-all): a sweep ranks
// every attribute, so an append touching any non-class attribute must
// invalidate it — which BumpAttrs does for nil-deps entries.
func (s *Session) sweepInternal(ctx context.Context, attr, class string, maxPairs int, partial bool) (*compare.SweepResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	a := s.ds.AttrIndex(attr)
	if a < 0 {
		return nil, fmt.Errorf("opmap: unknown attribute %q", attr)
	}
	cls, ok := s.ds.ClassDict().Lookup(class)
	if !ok {
		return nil, fmt.Errorf("opmap: unknown class %q", class)
	}
	ver := s.results.Version()
	key := sweepKey(a, cls, maxPairs)
	if v, ok := s.results.Get(ver, key); ok {
		return v.(*compare.SweepResult), nil
	}
	opts := compare.SweepOptions{Partial: partial}
	if maxPairs > 0 {
		opts.Screen.MaxPairs = maxPairs
	}
	res, err := compare.NewSource(src).SweepContext(ctx, a, cls, opts)
	if err != nil {
		return nil, err
	}
	if !res.Partial {
		s.results.Put(ver, key, res)
	}
	return res, nil
}

// WriteSweepReport renders a Markdown report of a sweep over attr's
// value pairs on the class: the systemic-vs-specific summary.
func (s *Session) WriteSweepReport(w io.Writer, attr, class string, maxPairs int, opts ReportOptions) error {
	res, err := s.sweepInternal(context.Background(), attr, class, maxPairs, false)
	if err != nil {
		return err
	}
	return report.Sweep(w, attr, class, res, report.Options{
		Title:     opts.Title,
		TopN:      opts.TopN,
		Generated: opts.Timestamp,
	})
}

// SignificanceResult reports a permutation test of one attribute's
// interestingness score.
type SignificanceResult struct {
	Attr     string
	Observed float64 // M on the real split
	PValue   float64 // chance of reaching Observed under random splits
	NullMean float64
	NullQ95  float64
	Rounds   int
}

// TestSignificance runs a permutation test: how often does a random
// reassignment of records between the two sub-populations reach the
// candidate attribute's observed M? Use it to decide how deep into a
// ranking to trust. rounds ≤ 0 means 200. Requires raw data (scans).
func (s *Session) TestSignificance(attr, v1, v2, class, candidate string, rounds int, seed int64) (SignificanceResult, error) {
	return s.TestSignificanceContext(context.Background(), attr, v1, v2, class, candidate, rounds, seed)
}

// TestSignificanceContext is TestSignificance under a context, checked
// once per permutation round; cancellation returns ctx.Err().
func (s *Session) TestSignificanceContext(ctx context.Context, attr, v1, v2, class, candidate string, rounds int, seed int64) (SignificanceResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, err := s.working(); err != nil {
		return SignificanceResult{}, err
	}
	in, copts, err := s.resolve(attr, v1, v2, class, CompareOptions{})
	if err != nil {
		return SignificanceResult{}, err
	}
	cand := s.ds.AttrIndex(candidate)
	if cand < 0 {
		return SignificanceResult{}, fmt.Errorf("opmap: unknown attribute %q", candidate)
	}
	res, err := compare.PermutationTestContext(ctx, s.ds, in, cand, rounds, seed, copts)
	if err != nil {
		return SignificanceResult{}, err
	}
	return SignificanceResult{
		Attr:     res.AttrName,
		Observed: res.Observed,
		PValue:   res.PValue,
		NullMean: res.NullMean,
		NullQ95:  res.NullQ95,
		Rounds:   res.Rounds,
	}, nil
}

// Describe writes a per-attribute profile of the loaded data: domain
// sizes, top values, missing rates, continuous ranges, and the class
// skew that motivates unbalanced sampling.
func (s *Session) Describe(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return dataset.Describe(s.raw).Write(w)
}

// DownsampleMajority keeps only keepFraction of the majority class
// (everything else in full), the paper's pre-mining rebalancing step for
// heavily skewed data (Section I). It must run before BuildCubes;
// existing cubes are invalidated.
func (s *Session) DownsampleMajority(keepFraction float64, seed int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sampled, err := dataset.UnbalancedSample(s.raw, dataset.SampleOptions{
		Seed:         seed,
		KeepFraction: keepFraction,
	})
	if err != nil {
		return err
	}
	s.raw = sampled
	if s.ds != nil && s.raw.AllCategorical() {
		s.ds = sampled
	} else {
		s.ds = nil // re-discretize on the sampled data
	}
	s.dropEngine()
	return nil
}

// ReportOptions controls WriteReport.
type ReportOptions struct {
	Title string
	// TopN limits the attributes detailed in full; zero means 5.
	TopN int
	// Timestamp stamps the report header when non-zero.
	Timestamp time.Time
	// IncludeImpressions appends the GI-miner appendix.
	IncludeImpressions bool
}

// WriteReport renders a Markdown report of the comparison, suitable for
// handing to the engineers who investigate the findings.
func (s *Session) WriteReport(w io.Writer, cmp *Comparison, opts ReportOptions) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ropts := report.Options{
		Title:     opts.Title,
		TopN:      opts.TopN,
		Generated: opts.Timestamp,
	}
	if opts.IncludeImpressions {
		src, err := s.requireSource()
		if err != nil {
			return err
		}
		rep, err := gi.MineAllSource(context.Background(), src, gi.TrendOptions{}, gi.ExceptionOptions{})
		if err != nil {
			return err
		}
		ropts.Impressions = rep
	}
	return report.Comparison(w, cmp.res, cmp.Attr, cmp.Label1, cmp.Label2, cmp.Class, ropts)
}
