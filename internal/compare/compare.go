// Package compare implements the paper's contribution: automated
// comparison of two sub-populations with respect to a target class
// (Sections III.C and IV). Given two one-condition rules
//
//	Rule 1: A1 = v_i -> c_a   (confidence cf1)
//	Rule 2: A1 = v_j -> c_a   (confidence cf2, cf1 < cf2)
//
// the comparator ranks every other attribute by how well it explains the
// confidence gap between the sub-populations D1 = {A1=v_i} and
// D2 = {A1=v_j}:
//
//	F_k = rcf_2k − rcf_1k · (cf2/cf1)       // per value v_k  (Eq. 1)
//	W_k = F_k · N_2k  if F_k > 0, else 0    // contribution    (Eq. 2)
//	M_i = Σ_k W_k                            // interestingness (Eq. 3)
//
// where rcf_1k = cf_1k + e_1k and rcf_2k = cf_2k − e_2k are the
// confidence-interval-revised confidences of Section IV.B. Attributes
// whose values almost never co-occur in both sub-populations are
// *property attributes* (Section IV.C) and are ranked separately.
package compare

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"opmap/internal/car"
	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/stats"
)

// IntervalMethod selects how confidence-interval margins are computed.
type IntervalMethod uint8

const (
	// Wald is the normal-approximation interval the paper uses
	// (e = z·sqrt(cf(1−cf)/N)).
	Wald IntervalMethod = iota
	// Wilson is the Wilson score interval, better behaved at extreme
	// proportions (an extension beyond the paper).
	Wilson
)

// String implements fmt.Stringer.
func (m IntervalMethod) String() string {
	switch m {
	case Wald:
		return "wald"
	case Wilson:
		return "wilson"
	default:
		return fmt.Sprintf("IntervalMethod(%d)", uint8(m))
	}
}

// Options configures a comparison. The zero value reproduces the paper:
// 0.95 confidence level, Wald intervals, property threshold 0.90.
type Options struct {
	// Level is the statistical confidence level (Table I). Zero means 0.95.
	Level stats.ConfidenceLevel
	// DisableCI switches off the interval adjustment, using raw
	// confidences in Eq. 1 (for the ablation the paper motivates in
	// Section IV.B).
	DisableCI bool
	// Method selects the interval formula when CI is enabled.
	Method IntervalMethod
	// PropertyThreshold is λ in Section IV.C; an attribute is a property
	// attribute when P/(P+T) > λ. Zero means 0.90.
	PropertyThreshold float64
	// MinRuleSupport optionally rejects input rules whose condition
	// count is below this (the paper assumes "both supports are large
	// enough for meaningful analysis (which is decided by the user)").
	MinRuleSupport int64
	// Attrs restricts the attributes ranked. Nil means every attribute
	// other than the comparison attribute and the class.
	Attrs []int
	// PartialOnDeadline makes OneVsRestContext return the attributes
	// scored so far — with the rest annotated in Result.Unscored — when
	// the context expires mid-ranking, instead of failing the whole
	// call. Pairwise CompareContext is always strict so that sweeps can
	// attribute a deadline to a specific pair.
	PartialOnDeadline bool
}

func (o Options) level() stats.ConfidenceLevel {
	if stats.IsZero(float64(o.Level)) {
		return stats.Level95
	}
	return o.Level
}

func (o Options) propertyThreshold() float64 {
	if stats.IsZero(o.PropertyThreshold) {
		return 0.90
	}
	return o.PropertyThreshold
}

// ErrRankSelf reports an explicit Options.Attrs entry equal to the
// comparison (split) attribute: an attribute cannot be ranked against
// itself. Distinct from ErrRankClass so callers (and the HTTP layer)
// can tell the two request mistakes apart.
var ErrRankSelf = errors.New("cannot be ranked against the comparison attribute itself")

// ErrRankClass reports an explicit Options.Attrs entry equal to the
// class attribute: the class is the ranking target, never a candidate.
var ErrRankClass = errors.New("the class attribute cannot be ranked")

// resolveRankAttrs resolves the candidate ranking attributes of a
// comparison split on splitAttr: nil means every attribute except the
// split attribute and the class; an explicit list is copied and
// validated, wrapping ErrRankSelf for a split-attribute entry and
// ErrRankClass for a class entry. Shared by the pairwise, one-vs-rest
// and batch-prefetch paths so all three reject bad lists identically.
func resolveRankAttrs(ds *dataset.Dataset, splitAttr int, explicit []int) ([]int, error) {
	if explicit == nil {
		return defaultRankAttrs(ds, splitAttr), nil
	}
	attrs := append([]int(nil), explicit...)
	for _, a := range attrs {
		if a < 0 || a >= ds.NumAttrs() {
			return nil, fmt.Errorf("compare: attribute index %d out of range", a)
		}
		switch a {
		case splitAttr:
			return nil, fmt.Errorf("compare: attribute %q %w", ds.Attr(a).Name, ErrRankSelf)
		case ds.ClassIndex():
			return nil, fmt.Errorf("compare: attribute %q: %w", ds.Attr(a).Name, ErrRankClass)
		}
	}
	return attrs, nil
}

// Input identifies the two sub-populations and the class of interest.
type Input struct {
	Attr   int   // A1: the attribute whose two values are compared
	V1, V2 int32 // the two values (e.g. two phone models)
	Class  int32 // c_a: the class of interest (e.g. "dropped")
}

// ValueCounts is one candidate value's four counts. They are all an
// answer keeps per value: every other field of its breakdown is a
// function of them, the answer's ratio cf2/cf1 and its options
// (Result.Detail). The type holds no pointers, so the collector never
// scans the slab an answer's counts are cut from.
type ValueCounts struct {
	Value  int32 // value code of the candidate attribute
	N1, N2 int64 // records with this value in D1 / D2
	C1, C2 int64 // of those, records in class c_a
}

// ValueDetail is the per-value breakdown behind an attribute's score —
// exactly the data Fig. 7 visualizes (side-by-side confidences with CI
// regions). Result.Detail derives it from the value's counts.
type ValueDetail struct {
	ValueCounts
	Label string // value label

	Cf1, Cf2   float64 // raw confidences cf_1k, cf_2k
	E1, E2     float64 // CI margins e_1k, e_2k (0 when CI disabled)
	RCf1, RCf2 float64 // revised confidences used in Eq. 1

	F float64 // excess confidence beyond expectation (Eq. 1)
	W float64 // contribution W_k (Eq. 2)
}

// AttrScore is the comparison result for one candidate attribute.
type AttrScore struct {
	Attr int    // dataset attribute index
	Name string // attribute name

	Score float64 // M_i (Eq. 3)
	// NormScore is Score normalized by cf2·|D2| (the order of magnitude
	// of the attainable maximum, Section IV.A's boundary discussion), so
	// scores are comparable across datasets. Extension beyond the paper.
	NormScore float64

	Property      bool    // Section IV.C property attribute
	PropertyRatio float64 // P/(P+T); NaN when P+T = 0

	// Values holds the counts of every value that occurs in D1 or D2,
	// in value-code order; Result.Detail derives each one's breakdown.
	Values []ValueCounts

	// labels is the attribute's dictionary in code order, as it stood
	// when the attribute was scored. Dictionaries only append, so the
	// view stays valid while ingest grows them.
	labels []string
}

// Result is a full comparison: the oriented input rules and the ranking.
type Result struct {
	// Rule1 and Rule2 are the input one-condition rules, oriented so
	// that Rule1 has the lower confidence (cf1 < cf2). Swapped records
	// whether the caller's V1/V2 were exchanged to achieve this.
	Rule1, Rule2 car.Rule
	Swapped      bool

	Cf1, Cf2 float64 // confidences of the oriented rules
	Ratio    float64 // cf2/cf1, the expectation multiplier

	// Ranked lists non-property attributes by descending score.
	Ranked []AttrScore
	// Property lists property attributes (Section IV.C), kept viewable
	// but out of the main ranking, by descending score.
	Property []AttrScore

	// Partial is set when the ranking is incomplete because the context
	// expired and Options.PartialOnDeadline allowed degradation; the
	// attributes that were not scored are listed in Unscored.
	Partial  bool
	Unscored []ItemError

	Options Options

	z float64 // the CI z-value of Options.Level; 0 with CI disabled
}

// ItemError annotates one item (an attribute, a value pair) that a
// degraded call could not complete, with the reason. Err is a plain
// string so results marshal cleanly to JSON.
type ItemError struct {
	Item string `json:"item"`
	Err  string `json:"err"`
}

// Top returns the n highest-ranked non-property attributes; a negative
// n returns none.
func (r *Result) Top(n int) []AttrScore {
	return r.Ranked[:min(max(n, 0), len(r.Ranked))]
}

// Detail derives the breakdown of s.Values[k], where s is one of this
// result's scores.
func (r *Result) Detail(s AttrScore, k int) ValueDetail {
	c := s.Values[k]
	d := derive(c, r.z, r.Ratio, &r.Options)
	d.Label = dataset.MissingLabel
	if int(c.Value) < len(s.labels) {
		d.Label = s.labels[c.Value]
	}
	return d
}

// DetailAt derives the breakdown of counts v at expectation ratio
// ratio, with this result's CI z-value and options: Detail's
// arithmetic for counts outside the ranking, such as a drill-down
// node's refined populations. The label is left empty.
func (r *Result) DetailAt(v ValueCounts, ratio float64) ValueDetail {
	return derive(v, r.z, ratio, &r.Options)
}

// Find returns the score entry (ranked or property) for the named
// attribute, with its 1-based rank among non-property attributes (0 for
// property attributes), or ok=false.
func (r *Result) Find(name string) (score AttrScore, rank int, ok bool) {
	for i, s := range r.Ranked {
		if s.Name == name {
			return s, i + 1, true
		}
	}
	for _, s := range r.Property {
		if s.Name == name {
			return s, 0, true
		}
	}
	return AttrScore{}, 0, false
}

// Comparator evaluates comparisons against the cube engine — with
// every pair cube pinned (the deployed configuration: because only
// cube cells are read, the comparison time is independent of the raw
// dataset size, Section V.C) or with cubes materialized on first
// touch.
type Comparator struct {
	src *engine.LazySource
	ds  *dataset.Dataset
}

// NewSource returns a Comparator over the cube engine src.
func NewSource(src *engine.LazySource) *Comparator {
	return &Comparator{src: src, ds: src.Dataset()}
}

// Compare runs the full ranking of Fig. 3's algorithm: for each
// candidate attribute it computes M_i from the 3-D rule cube
// (A1 × A_i × class) and ranks the attributes.
func (c *Comparator) Compare(in Input, opts Options) (*Result, error) {
	return c.CompareContext(context.Background(), in, opts)
}

// CompareContext is Compare under a context, checked once per
// candidate attribute (and once per row block while counting). It is
// always strict: on cancellation it returns ctx.Err() rather than a
// partial ranking (degradation belongs to the fan-out callers,
// SweepContext and OneVsRestContext). It reads only the A1 = v1 and
// A1 = v2 slices of each candidate's pair cube, all in one engine
// call (engine.LazySource.PairSlices): resident pair cubes are read,
// and the rest are counted in one pass over D1 ∪ D2, never cached.
func (c *Comparator) CompareContext(ctx context.Context, in Input, opts Options) (*Result, error) {
	return c.compare(ctx, in, opts, nil)
}

// compare is CompareContext over the candidate list attrs, resolved
// from opts.Attrs by resolveRankAttrs once for a whole sweep; nil
// resolves it per call (see prepare).
func (c *Comparator) compare(ctx context.Context, in Input, opts Options, attrs []int) (*Result, error) {
	if err := checkInput(c.ds, in); err != nil {
		return nil, err
	}
	// The comparison attribute's 1-D cube holds both input rules and
	// their total: the countable records (attribute and class both
	// present), the same population OneVsRest totals over, which unlike
	// the working dataset's row count leaves out rows missing either
	// value.
	cube, err := c.src.CubeN(ctx, []int{in.Attr})
	if err != nil {
		return nil, fmt.Errorf("compare: attribute %d unavailable: %w", in.Attr, err)
	}
	r1, err1 := cube.Rule([]int32{in.V1}, in.Class)
	r2, err2 := cube.Rule([]int32{in.V2}, in.Class)
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	res, attrs, err := prepare(c.ds, r1, r2, in, opts, attrs)
	if err != nil {
		return nil, err
	}
	v1, v2 := res.result.Rule1.Conditions[0].Value, res.result.Rule2.Conditions[0].Value

	// One engine call serves every candidate: resident pair cubes are
	// read, the rest counted together over D1 ∪ D2 alone.
	tabs, err := c.src.PairSlices(ctx, in.Attr, v1, v2, attrs)
	if err != nil {
		return nil, fmt.Errorf("compare: pair cubes of attribute %d unavailable: %w", in.Attr, err)
	}

	// Hot-path timing: disarmed (the default) this loop pays one atomic
	// load up front and nothing per attribute; armed, each candidate's
	// scoring is observed individually.
	var attrTimes *obsv.Histogram
	if obsv.HotArmed() {
		attrTimes = obsv.Default().Histogram(obsv.CompareAttrHistogramName, nil)
	}
	for k, ai := range attrs {
		if err := faultinject.Check(ctx, faultinject.SiteCompareAttr); err != nil {
			return nil, err
		}
		var attrStart time.Time
		if attrTimes != nil {
			attrStart = time.Now()
		}
		res.addAttribute(c.ds, ai, res.sliceTable(tabs[k], in.Class))
		if attrTimes != nil {
			attrTimes.ObserveSince(attrStart)
		}
	}
	res.finish()
	return res.result, nil
}

// sliceTable extracts, from a candidate's two pair-cube slices, the
// per-value contingency rows for A1=v1 and A1=v2: for each value v_k of
// the candidate, the total and class-c_a counts in each sub-population.
// The table is the computation's scratch, valid until the next call.
func (c *computation) sliceTable(s rulecube.Slices, class int32) *valueTable {
	t := c.table(s.Dim())
	s.Fill(0, class, t.n1, t.c1)
	s.Fill(1, class, t.n2, t.c2)
	return t
}

// valueTable holds the per-value counts of one candidate attribute in
// both sub-populations.
type valueTable struct {
	n1, c1 []int64 // per value: total and class-c_a counts in D1
	n2, c2 []int64 // per value: total and class-c_a counts in D2
}

// flip returns the table with its two sides exchanged.
func (t valueTable) flip() valueTable {
	return valueTable{n1: t.n2, c1: t.c2, n2: t.n1, c2: t.c1}
}

// newValueTable returns a zeroed table of card values in one
// allocation.
func newValueTable(card int) valueTable {
	return tableOf(make([]int64, 4*card), card)
}

// tableOf cuts a table of card values from buf, which holds at least
// 4·card entries.
func tableOf(buf []int64, card int) valueTable {
	return valueTable{
		n1: buf[0*card : 1*card : 1*card],
		c1: buf[1*card : 2*card : 2*card],
		n2: buf[2*card : 3*card : 3*card],
		c2: buf[3*card : 4*card : 4*card],
	}
}

// computation carries the oriented comparison state while attributes are
// scored. It allocates once per answer, not once per candidate or
// value: reserve sizes one value table that every candidate refills,
// one ValueCounts slab the candidates' counts are cut from, and the
// ranking, which every score is written into in place.
type computation struct {
	result *Result

	buf    []int64    // the reserved scratch every value table is cut from
	tab    valueTable // the current candidate's table
	counts []ValueCounts
}

// reserve sizes the computation's buffers for scoring attrs of ds.
func (c *computation) reserve(ds *dataset.Dataset, attrs []int) {
	maxCard, values := 0, 0
	for _, a := range attrs {
		card := ds.Cardinality(a)
		maxCard = max(maxCard, card)
		values += card
	}
	c.buf = make([]int64, 4*maxCard)
	c.counts = make([]ValueCounts, 0, values)
	c.result.Ranked = make([]AttrScore, 0, len(attrs))
}

// table returns the scratch value table viewing card values; callers
// overwrite every entry. A card beyond the reservation gets a table of
// its own.
func (c *computation) table(card int) *valueTable {
	if len(c.buf) < 4*card {
		c.buf = make([]int64, 4*card)
	}
	c.tab = tableOf(c.buf, card)
	return &c.tab
}

// addAttribute scores candidate attribute attr of ds from its value
// table into the result; see add.
func (c *computation) addAttribute(ds *dataset.Dataset, attr int, tab *valueTable) {
	c.add(attr, ds.Attr(attr).Name, ds.Column(attr).Dict.View(), tab)
}

// add scores one candidate attribute (see score) straight into the next
// slot of the ranking, and moves it to the property list if it is a
// property attribute.
func (c *computation) add(attr int, name string, labels []string, tab *valueTable) {
	res := c.result
	res.Ranked = append(res.Ranked, AttrScore{})
	s := &res.Ranked[len(res.Ranked)-1]
	c.score(s, attr, name, labels, tab)
	if s.Property {
		res.Property = append(res.Property, *s)
		res.Ranked = res.Ranked[:len(res.Ranked)-1]
	}
}

// sortBuf is how many scores finish sorts with a permutation on the
// stack; longer rankings allocate theirs.
const sortBuf = 256

func (c *computation) finish() {
	res := c.result
	if len(res.Ranked) == 0 {
		res.Ranked = nil
	}
	var buf [sortBuf]int32
	perm := buf[:]
	if n := max(len(res.Ranked), len(res.Property)); n > sortBuf {
		perm = make([]int32, n)
	}
	sortScores(res.Ranked, perm)
	sortScores(res.Property, perm)
}

// sortScores orders scores as slices.SortStableFunc(scores, byScore)
// would, without moving the structs while sorting: it stable-sorts the
// index permutation perm (scratch of at least len(scores) entries) by
// the scores it points at, then applies it in place.
func sortScores(scores []AttrScore, perm []int32) {
	perm = perm[:len(scores)]
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int { return byScore(&scores[a], &scores[b]) })
	// Follow each cycle of the permutation once: position j takes the
	// score at perm[j], so every score moves straight to its place.
	for i := range perm {
		if int(perm[i]) == i {
			continue
		}
		first, j := scores[i], i
		for {
			k := int(perm[j])
			perm[j] = int32(j)
			if k == i {
				scores[j] = first
				break
			}
			scores[j] = scores[k]
			j = k
		}
	}
}

// byScore orders scores by descending M, ties by name.
func byScore(a, b *AttrScore) int {
	switch {
	case a.Score > b.Score:
		return -1
	case b.Score > a.Score:
		return 1
	}
	return strings.Compare(a.Name, b.Name)
}

// checkInput rejects a pairwise input that does not name two distinct
// values of a condition attribute of ds and one of its classes.
func checkInput(ds *dataset.Dataset, in Input) error {
	if in.Attr < 0 || in.Attr >= ds.NumAttrs() || in.Attr == ds.ClassIndex() {
		return fmt.Errorf("compare: invalid comparison attribute %d", in.Attr)
	}
	card := ds.Cardinality(in.Attr)
	if in.V1 < 0 || int(in.V1) >= card || in.V2 < 0 || int(in.V2) >= card {
		return fmt.Errorf("compare: values %d,%d out of range [0,%d) for attribute %q", in.V1, in.V2, card, ds.Attr(in.Attr).Name)
	}
	if in.V1 == in.V2 {
		return fmt.Errorf("compare: the two values must differ")
	}
	if in.Class < 0 || int(in.Class) >= ds.NumClasses() {
		return fmt.Errorf("compare: class %d out of range [0,%d)", in.Class, ds.NumClasses())
	}
	return nil
}

// orient is the comparator's preamble (Fig. 3), shared by every
// comparison: r1 and r2 are the counted input rules of the caller's
// two sub-populations. It rejects a side below opts.MinRuleSupport, an
// empty side and a lower side of zero confidence (the ratio cf2/cf1 is
// then undefined) as ErrValueUndefined, orients the rules so that
// cf1 < cf2, and starts scoring; it also fails for an invalid
// confidence level.
func orient(r1, r2 car.Rule, opts Options) (*computation, error) {
	n1, n2 := r1.CondCount, r2.CondCount
	if opts.MinRuleSupport > 0 && (n1 < opts.MinRuleSupport || n2 < opts.MinRuleSupport) {
		return nil, undefinedf("compare: sub-population sizes %d and %d below MinRuleSupport %d", n1, n2, opts.MinRuleSupport)
	}
	if n1 == 0 || n2 == 0 {
		return nil, undefinedf("compare: empty sub-population (|D1|=%d, |D2|=%d)", n1, n2)
	}
	res := &Result{Rule1: r1, Rule2: r2, Options: opts}
	if r1.Confidence() > r2.Confidence() {
		res.Rule1, res.Rule2, res.Swapped = r2, r1, true
	}
	if res.Rule1.SupCount == 0 {
		return nil, undefinedf("compare: the lower-confidence side (%d records) has zero confidence; the expectation ratio cf2/cf1 is undefined", res.Rule1.CondCount)
	}
	res.Cf1, res.Cf2 = res.Rule1.Confidence(), res.Rule2.Confidence()
	res.Ratio = res.Cf2 / res.Cf1
	if !opts.DisableCI {
		z, err := stats.ZValue(opts.level())
		if err != nil {
			return nil, err
		}
		res.z = z
	}
	return &computation{result: res}, nil
}

// prepare orients a pairwise comparison's two counted input rules, of
// in.V1 and in.V2, and returns the candidate attribute list: attrs when
// the caller resolved it already, else opts.Attrs resolved after the
// preamble, so an input error wins over a list error.
func prepare(ds *dataset.Dataset, r1, r2 car.Rule, in Input, opts Options, attrs []int) (*computation, []int, error) {
	comp, err := orient(r1, r2, opts)
	if err != nil {
		return nil, nil, err
	}
	if attrs == nil {
		if attrs, err = resolveRankAttrs(ds, in.Attr, opts.Attrs); err != nil {
			return nil, nil, err
		}
	}
	comp.reserve(ds, attrs)
	return comp, attrs, nil
}

// score computes M_i (Eq. 1–3) and the property classification for one
// candidate attribute from its value table into the zero score s,
// keeping the counts of every value that occurs in D1 or D2. labels is
// the attribute's dictionary in code order.
func (c *computation) score(s *AttrScore, attr int, name string, labels []string, tab *valueTable) {
	res := c.result
	s.Attr, s.Name, s.labels = attr, name, labels
	first := len(c.counts)
	var p, t int
	var m float64
	for k := range tab.n1 {
		v := ValueCounts{Value: int32(k), N1: tab.n1[k], N2: tab.n2[k], C1: tab.c1[k], C2: tab.c2[k]}
		if v.N1 == 0 && v.N2 == 0 {
			continue // value occurs in neither sub-population: ignore
		}
		switch {
		case v.N1 > 0 && v.N2 > 0:
			t++
		default:
			p++
		}
		_, _, _, _, _, _, _, w := weigh(v, res.z, res.Ratio, &res.Options)
		m += w
		c.counts = append(c.counts, v)
	}
	if n := len(c.counts); n > first {
		s.Values = c.counts[first:n:n]
	}
	s.Score = m
	if denom := res.Cf2 * float64(res.Rule2.CondCount); denom > 0 {
		s.NormScore = m / denom
	}
	if p+t > 0 {
		s.PropertyRatio = float64(p) / float64(p+t)
		s.Property = s.PropertyRatio > res.Options.propertyThreshold()
	} else {
		s.PropertyRatio = math.NaN()
	}
}

// derive computes one value's breakdown from its counts (see weigh).
// The label is left empty.
func derive(v ValueCounts, z, ratio float64, opts *Options) ValueDetail {
	d := ValueDetail{ValueCounts: v}
	d.Cf1, d.Cf2, d.E1, d.E2, d.RCf1, d.RCf2, d.F, d.W = weigh(v, z, ratio, opts)
	return d
}

// weigh is the arithmetic behind one value's contribution: the raw
// confidences, their CI margins and Section IV.B's interval-revised
// confidences (z is the CI z-value, unused with CI disabled), and
// Eq. 1–2's F and W given the answer's ratio cf2/cf1. Scoring sums W
// from it directly, building no ValueDetail.
func weigh(v ValueCounts, z, ratio float64, opts *Options) (cf1, cf2, e1, e2, rcf1, rcf2, f, w float64) {
	if v.N1 > 0 {
		cf1 = float64(v.C1) / float64(v.N1)
	}
	if v.N2 > 0 {
		cf2 = float64(v.C2) / float64(v.N2)
	}
	rcf1, rcf2 = cf1, cf2
	if !opts.DisableCI {
		e1 = margin(opts.Method, z, cf1, v.N1, v.C1, opts.level())
		e2 = margin(opts.Method, z, cf2, v.N2, v.C2, opts.level())
		rcf1 = math.Min(1, cf1+e1)
		rcf2 = math.Max(0, cf2-e2)
	}
	// Eq. 1–2: the expected confidence of cf_2k is cf_1k·(cf2/cf1);
	// F_k is the excess beyond it, counted only when positive.
	f = rcf2 - rcf1*ratio
	if f > 0 && v.N2 > 0 {
		w = f * float64(v.N2)
	}
	return cf1, cf2, e1, e2, rcf1, rcf2, f, w
}

// margin computes the CI half-width for a confidence value.
func margin(method IntervalMethod, z, cf float64, n, c int64, level stats.ConfidenceLevel) float64 {
	if n == 0 {
		return 0.5
	}
	switch method {
	case Wilson:
		ci, err := stats.WilsonCI(c, n, level)
		if err != nil {
			return 0.5
		}
		return ci.Margin
	default:
		return z * math.Sqrt(cf*(1-cf)/float64(n))
	}
}

// Scan runs the same comparison by scanning the raw dataset instead of
// reading cubes, over the rows at which every condition of where holds
// (nil: every row), as restricted mining (III.B) re-compares within a
// context; condition attributes are not ranked. Like the cubes, it
// skips records whose class is missing. One rulecube.CountSlices pass
// counts it; ctx is polled per row block and candidate. It serves
// Session.CompareWhere, the permutation test, the cube-vs-scan
// ablation and the tests' cube-free reference.
func Scan(ctx context.Context, ds *dataset.Dataset, where []car.Condition, in Input, opts Options) (*Result, error) {
	if !ds.AllCategorical() {
		return nil, fmt.Errorf("compare: dataset has continuous attributes; discretize first")
	}
	if err := checkInput(ds, in); err != nil {
		return nil, err
	}
	if len(where) > 0 && opts.Attrs == nil {
		opts.Attrs = slices.DeleteFunc(defaultRankAttrs(ds, in.Attr), func(a int) bool { return slices.ContainsFunc(where, func(f car.Condition) bool { return f.Attr == a }) })
	}
	// A bad list is nil here; prepare reports it after the preamble.
	attrs, _ := resolveRankAttrs(ds, in.Attr, opts.Attrs)
	tabs, sel, err := rulecube.CountSlices(ctx, ds, in.Attr, in.V1, in.V2, where, attrs)
	if err != nil {
		return nil, err
	}
	if len(where) > 0 && sel.Matched == 0 {
		return nil, fmt.Errorf("compare: no records match the fixed conditions")
	}
	var n, c [2]int64
	sel.Rules.Fill(0, in.Class, n[:1], c[:1])
	sel.Rules.Fill(1, in.Class, n[1:], c[1:])
	rule := func(side int, v int32) car.Rule {
		return car.Rule{Conditions: []car.Condition{{Attr: in.Attr, Value: v}}, Class: in.Class, SupCount: c[side], CondCount: n[side], Total: sel.Total}
	}
	res, attrs, err := prepare(ds, rule(0, in.V1), rule(1, in.V2), in, opts, attrs)
	if err != nil {
		return nil, err
	}
	for k, ai := range attrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := res.sliceTable(tabs[k], in.Class)
		if res.result.Swapped {
			*t = t.flip()
		}
		res.addAttribute(ds, ai, t)
	}
	res.finish()
	return res.result, nil
}

// CompareValues scores a single candidate attribute from explicit
// per-value counts, without a dataset. It is the computational core
// exposed for tests and for the boundary-condition demonstrations of
// Fig. 2/Fig. 4: n1/c1 are the per-value total and class counts in D1,
// n2/c2 in D2. Labels may be nil. The input rules are the two sides'
// totals, validated and oriented as every comparison's are.
func CompareValues(name string, labels []string, n1, c1, n2, c2 []int64, opts Options) (AttrScore, Result, error) {
	card := len(n1)
	if len(c1) != card || len(n2) != card || len(c2) != card {
		return AttrScore{}, Result{}, fmt.Errorf("compare: count slices must have equal length")
	}
	var r1, r2 car.Rule
	for k := 0; k < card; k++ {
		if c1[k] > n1[k] || c2[k] > n2[k] || n1[k] < 0 || n2[k] < 0 || c1[k] < 0 || c2[k] < 0 {
			return AttrScore{}, Result{}, fmt.Errorf("compare: invalid counts at value %d", k)
		}
		r1.CondCount += n1[k]
		r1.SupCount += c1[k]
		r2.CondCount += n2[k]
		r2.SupCount += c2[k]
	}
	r1.Total = r1.CondCount + r2.CondCount
	r2.Total = r1.Total
	comp, err := orient(r1, r2, opts)
	if err != nil {
		return AttrScore{}, Result{}, err
	}
	tab := valueTable{n1: n1, c1: c1, n2: n2, c2: c2}
	if comp.result.Swapped {
		tab = tab.flip()
	}
	names := make([]string, card)
	for k := range names {
		if k < len(labels) {
			names[k] = labels[k]
		} else {
			names[k] = fmt.Sprintf("v%d", k)
		}
	}
	if name == "" {
		name = "attr"
	}
	comp.add(0, name, names, &tab)
	comp.finish()
	res := comp.result
	if len(res.Property) > 0 {
		return res.Property[0], *res, nil
	}
	return res.Ranked[0], *res, nil
}
