package opmap

import (
	"context"
	"fmt"
	"io"

	"opmap/internal/compare"
	"opmap/internal/obsv"
	"opmap/internal/stats"
	"opmap/internal/visual"
)

// ErrRankSelf matches (via errors.Is) rejections of an explicit Attrs
// list that names the comparison attribute itself: an attribute cannot
// be ranked against its own split.
var ErrRankSelf = compare.ErrRankSelf

// ErrRankClass matches (via errors.Is) rejections of an explicit Attrs
// list that names the class attribute: the class defines the outcome
// being explained and cannot appear among the ranked candidates.
var ErrRankClass = compare.ErrRankClass

// CompareOptions tunes the automated comparison. The zero value
// reproduces the paper: 0.95 confidence level with Wald intervals and a
// 0.90 property-attribute threshold.
type CompareOptions struct {
	// ConfidenceLevel for the interval adjustment (0.90, 0.95, 0.99 per
	// Table I, or any level in (0,1)). Zero means 0.95.
	ConfidenceLevel float64
	// DisableCI turns off the interval adjustment (raw confidences).
	DisableCI bool
	// WilsonIntervals switches from the paper's Wald interval to Wilson
	// score intervals (extension).
	WilsonIntervals bool
	// PropertyThreshold is λ of Section IV.C. Zero means 0.90.
	PropertyThreshold float64
	// MinRuleSupport rejects comparisons whose sub-populations are
	// smaller than this.
	MinRuleSupport int64
	// Attrs restricts the ranked attributes by name; nil means all.
	Attrs []string
	// PartialOnDeadline lets CompareOneVsRestContext return the
	// attributes ranked so far — with the rest listed in
	// Comparison.Unscored — when the context expires mid-ranking,
	// instead of failing the call.
	PartialOnDeadline bool
}

// ItemError annotates one item (attribute or value pair) a degraded
// call could not complete, with the reason.
type ItemError struct {
	Item string `json:"item"`
	Err  string `json:"err"`
}

// AttributeScore is one entry of a comparison ranking.
type AttributeScore struct {
	Name string
	// Score is the interestingness M_i of Eq. 3.
	Score float64
	// NormScore is Score normalized by cf2·|D2| for cross-dataset
	// comparability.
	NormScore float64
	// Property flags a Section IV.C property attribute (listed apart).
	Property bool
	// PropertyRatio is P/(P+T) of Section IV.C.
	PropertyRatio float64
}

// ValueBreakdown is the comparison detail of one attribute value;
// Comparison.Breakdown derives it.
type ValueBreakdown struct {
	Label string
	// Sub-population 1 (lower confidence side): records, class records,
	// confidence, CI margin.
	N1, C1 int64
	Cf1    float64
	E1     float64
	// Sub-population 2 (higher confidence side).
	N2, C2 int64
	Cf2    float64
	E2     float64
	// F is Eq. 1's excess beyond expectation; W is Eq. 2's contribution.
	F, W float64
}

// Comparison is the result of an automated comparison (Section IV).
type Comparison struct {
	// Attr is the comparison attribute; Label1/Label2 are the compared
	// values, oriented so Label1 has the lower confidence.
	Attr           string
	Label1, Label2 string
	// Cf1 and Cf2 are the two input rules' confidences (cf1 < cf2);
	// Ratio is cf2/cf1.
	Cf1, Cf2, Ratio float64
	// Class is the class of interest.
	Class string

	// Partial is set when the ranking is incomplete because a context
	// expired and degradation was allowed; Unscored lists the
	// attributes that were not ranked.
	Partial  bool
	Unscored []ItemError

	res *compare.Result
}

// Compare runs the paper's automated comparison: it ranks every other
// attribute by how well it distinguishes the sub-populations attr=v1
// and attr=v2 with respect to the class. Rule cubes must be built.
func (s *Session) Compare(attr, v1, v2, class string, opts CompareOptions) (*Comparison, error) {
	return s.CompareContext(context.Background(), attr, v1, v2, class, opts)
}

// CompareContext is Compare under a context: cancellation mid-ranking
// returns ctx.Err() promptly. It is strict; for degradable fan-out use
// SweepPartial or CompareOneVsRestContext with PartialOnDeadline.
func (s *Session) CompareContext(ctx context.Context, attr, v1, v2, class string, opts CompareOptions) (*Comparison, error) {
	defer obsv.Stage(obsv.StageCompare)()
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	in, copts, err := s.resolve(attr, v1, v2, class, opts)
	if err != nil {
		return nil, err
	}
	res, err := memo(s.results, compareKey(in, copts), compareDeps(in, copts), func() (*compare.Result, bool, error) {
		res, err := compare.NewSource(src).CompareContext(ctx, in, copts)
		return res, err == nil && res.Partial, err
	})
	if err != nil {
		return nil, err
	}
	return s.wrapComparison(attr, class, in, res), nil
}

// compareDeps lists the attribute indices a cached comparison depends
// on, so appends invalidate it only when one of them is touched. An
// unrestricted comparison ranks every attribute — nil deps mean
// "depends on all".
func compareDeps(in compare.Input, copts compare.Options) []int {
	if copts.Attrs == nil {
		return nil
	}
	deps := make([]int, 0, len(copts.Attrs)+1)
	deps = append(deps, in.Attr)
	for _, a := range copts.Attrs {
		if a != in.Attr {
			deps = append(deps, a)
		}
	}
	return deps
}

// resolve translates names to codes and builds the internal options.
func (s *Session) resolve(attr, v1, v2, class string, opts CompareOptions) (compare.Input, compare.Options, error) {
	ds := s.ds
	ai := ds.AttrIndex(attr)
	if ai < 0 {
		return compare.Input{}, compare.Options{}, fmt.Errorf("opmap: unknown attribute %q", attr)
	}
	dict := ds.Column(ai).Dict
	c1, ok := dict.Lookup(v1)
	if !ok {
		return compare.Input{}, compare.Options{}, fmt.Errorf("opmap: attribute %q has no value %q", attr, v1)
	}
	c2, ok := dict.Lookup(v2)
	if !ok {
		return compare.Input{}, compare.Options{}, fmt.Errorf("opmap: attribute %q has no value %q", attr, v2)
	}
	cc, ok := ds.ClassDict().Lookup(class)
	if !ok {
		return compare.Input{}, compare.Options{}, fmt.Errorf("opmap: unknown class %q", class)
	}
	copts, err := s.compareOptions(opts)
	if err != nil {
		return compare.Input{}, compare.Options{}, err
	}
	return compare.Input{Attr: ai, V1: c1, V2: c2, Class: cc}, copts, nil
}

// compareOptions converts the public options to the internal form,
// resolving attribute names. Shared by the pairwise, one-vs-rest and
// sweep entry points.
func (s *Session) compareOptions(opts CompareOptions) (compare.Options, error) {
	copts := compare.Options{
		DisableCI:         opts.DisableCI,
		PropertyThreshold: opts.PropertyThreshold,
		MinRuleSupport:    opts.MinRuleSupport,
		PartialOnDeadline: opts.PartialOnDeadline,
	}
	if !stats.IsZero(opts.ConfidenceLevel) {
		copts.Level = stats.ConfidenceLevel(opts.ConfidenceLevel)
	}
	if opts.WilsonIntervals {
		copts.Method = compare.Wilson
	}
	for _, n := range opts.Attrs {
		i := s.ds.AttrIndex(n)
		if i < 0 {
			return compare.Options{}, fmt.Errorf("opmap: unknown attribute %q in Attrs", n)
		}
		copts.Attrs = append(copts.Attrs, i)
	}
	return copts, nil
}

func (s *Session) wrapComparison(attr, class string, in compare.Input, res *compare.Result) *Comparison {
	dict := s.ds.Column(in.Attr).Dict
	l1 := dict.Label(res.Rule1.Conditions[0].Value)
	l2 := dict.Label(res.Rule2.Conditions[0].Value)
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

func toItemErrors(in []compare.ItemError) []ItemError {
	var out []ItemError
	for _, e := range in {
		out = append(out, ItemError{Item: e.Item, Err: e.Err})
	}
	return out
}

// toScores converts internal scores to the public form in one
// allocation; none gives nil.
func toScores(in []compare.AttrScore) []AttributeScore {
	if len(in) == 0 {
		return nil
	}
	out := make([]AttributeScore, len(in))
	for i, s := range in {
		out[i] = toScore(s)
	}
	return out
}

func toScore(s compare.AttrScore) AttributeScore {
	return AttributeScore{
		Name:          s.Name,
		Score:         s.Score,
		NormScore:     s.NormScore,
		Property:      s.Property,
		PropertyRatio: s.PropertyRatio,
	}
}

// Top returns the n highest-ranked non-property attributes.
func (c *Comparison) Top(n int) []AttributeScore { return toScores(c.res.Top(n)) }

// TopProperty returns the n highest-scoring property attributes.
func (c *Comparison) TopProperty(n int) []AttributeScore {
	return toScores(c.res.Property[:min(max(n, 0), len(c.res.Property))])
}

// Ranked returns all non-property attributes by descending score.
func (c *Comparison) Ranked() []AttributeScore { return toScores(c.res.Ranked) }

// PropertyAttributes returns the attributes set aside per Section IV.C.
func (c *Comparison) PropertyAttributes() []AttributeScore { return toScores(c.res.Property) }

// Breakdown derives the per-value breakdown of the named attribute,
// ranked or property (the data behind Fig. 7): one entry per value that
// occurs in either sub-population, in value-code order.
func (c *Comparison) Breakdown(name string) ([]ValueBreakdown, bool) {
	s, _, ok := c.res.Find(name)
	if !ok {
		return nil, false
	}
	out := make([]ValueBreakdown, len(s.Values))
	for k := range s.Values {
		d := c.res.Detail(s, k)
		out[k] = ValueBreakdown{
			Label: d.Label,
			N1:    d.N1, C1: d.C1, Cf1: d.Cf1, E1: d.E1,
			N2: d.N2, C2: d.C2, Cf2: d.Cf2, E2: d.E2,
			F: d.F, W: d.W,
		}
	}
	return out, true
}

// Rank returns the 1-based rank of the named attribute among the
// non-property ranking (0 when the attribute is a property attribute),
// and ok=false when the attribute was not ranked at all.
func (c *Comparison) Rank(name string) (rank int, ok bool) {
	_, rank, ok = c.res.Find(name)
	return rank, ok
}

// Attribute returns the score entry for the named attribute, ranked or
// property.
func (c *Comparison) Attribute(name string) (AttributeScore, bool) {
	s, _, ok := c.res.Find(name)
	if !ok {
		return AttributeScore{}, false
	}
	return toScore(s), true
}

// RenderRanking writes the ranking view (top n plus the property list).
func (c *Comparison) RenderRanking(w io.Writer, topN int) {
	visual.Ranking(w, c.res, topN)
}

// RenderAttribute writes the Fig. 7-style per-value comparison view of
// one attribute.
func (c *Comparison) RenderAttribute(w io.Writer, name string) error {
	s, _, ok := c.res.Find(name)
	if !ok {
		return fmt.Errorf("opmap: attribute %q not in the comparison", name)
	}
	visual.Comparison(w, c.res, s, c.Label1, c.Label2)
	return nil
}

// RenderProperty writes the Fig. 8-style property-attribute view: per
// value, the two sub-populations' record counts with the zero-count
// sides marked.
func (c *Comparison) RenderProperty(w io.Writer, name string) error {
	s, _, ok := c.res.Find(name)
	if !ok {
		return fmt.Errorf("opmap: attribute %q not in the comparison", name)
	}
	visual.PropertyView(w, c.res, s, c.Label1, c.Label2)
	return nil
}

// RenderAttributeSVG writes the Fig. 7-style chart as an SVG document.
func (c *Comparison) RenderAttributeSVG(w io.Writer, name string) error {
	s, _, ok := c.res.Find(name)
	if !ok {
		return fmt.Errorf("opmap: attribute %q not in the comparison", name)
	}
	return visual.ComparisonSVG(w, c.res, s, c.Label1, c.Label2)
}

// String summarizes the comparison.
func (c *Comparison) String() string {
	return fmt.Sprintf("compare %s=%s (cf=%.4f) vs %s=%s (cf=%.4f) on class %s: %d ranked, %d property",
		c.Attr, c.Label1, c.Cf1, c.Attr, c.Label2, c.Cf2, c.Class, len(c.res.Ranked), len(c.res.Property))
}
