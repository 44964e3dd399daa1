// Package drill implements multi-condition drill-down over rule
// cubes. A pairwise comparison (compare.Compare) explains a confidence
// gap between two sub-populations D1 = {A1=v_i} and D2 = {A1=v_j} one
// attribute at a time; the drill-down planner searches for condition
// *conjunctions* — sub-populations like {A1=v_j, Terrain=hilly,
// Signal-Band=weak} — whose class confidence exceeds what the
// comparison's expectation ratio predicts. Effects that two or more
// conditions produce jointly leave only a diluted trace in any single
// attribute's marginal, so the one-condition ranking alone cannot
// surface them.
//
// The planner is a beam search over the lattice of condition sets:
// the root is the input comparison itself; each frontier node fixes a
// set of conditions beyond the comparison attribute, refining both
// sub-populations; expanding a node scores every remaining candidate
// attribute inside the refined populations and turns each
// sufficiently interesting (attribute, value) cell into a child node.
// Only the highest-scoring nodes per depth are expanded ("high-M
// branches"), and depth, beam width and a total node budget cap the
// work. Every cube a frontier expansion needs is declared to the
// engine in one batch, so a lazy source answers all cache misses from
// a single shared dataset scan.
//
// Candidate extensions are scored with the paper's contribution
// measure by default (CI-revised W_k of Eq. 1–2, applied inside the
// refined populations); alternative interestingness measures in the
// style of the Kannan & Bhaskaran survey (lift, conviction) plug in
// behind the Measure interface. Scores are normalized by the
// attainable maximum at each node (Section IV.A's boundary), so
// findings at different depths — whose absolute excess masses are not
// comparable — rank on a common scale.
package drill

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"opmap/internal/compare"
	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
)

// Stats carries one candidate extension cell's counts and revised
// confidences, plus the parent node's expectation ratio — everything a
// Measure may consult.
type Stats struct {
	N1, C1 int64 // refined D1 rows with the candidate value: total, class
	N2, C2 int64 // refined D2 rows with the candidate value: total, class

	Cf1, Cf2   float64 // raw confidences of the cell in each side
	RCf1, RCf2 float64 // CI-revised confidences (equal to raw when CI is off)

	// Ratio is cf2/cf1 of the parent node's refined populations: the
	// multiplier by which the cell's D2 confidence is *expected* to
	// exceed its D1 confidence.
	Ratio float64
}

// cellStats is the Stats of one cell's breakdown d at the parent
// node's expectation ratio.
func cellStats(d compare.ValueDetail, ratio float64) Stats {
	return Stats{
		N1: d.N1, C1: d.C1, N2: d.N2, C2: d.C2,
		Cf1: d.Cf1, Cf2: d.Cf2, RCf1: d.RCf1, RCf2: d.RCf2,
		Ratio: ratio,
	}
}

// Measure scores one candidate condition extension. A score of zero or
// less means "not interesting": the cell neither becomes a finding nor
// a frontier node. Implementations must be pure functions of Stats.
type Measure interface {
	Name() string
	Score(s Stats) float64
}

// PaperM is the default measure: the paper's per-value contribution
// W_k = F_k·N_2k with F_k = rcf_2k − rcf_1k·ratio (Eq. 1–2), computed
// inside the refined populations.
type PaperM struct{}

// Name implements Measure.
func (PaperM) Name() string { return "paper" }

// Score implements Measure.
func (PaperM) Score(s Stats) float64 {
	f := s.RCf2 - s.RCf1*s.Ratio
	if f <= 0 || s.N2 == 0 {
		return 0
	}
	return f * float64(s.N2)
}

// Lift is the multiplicative analogue of PaperM, after the lift
// measure of the association-rule interestingness literature (Kannan &
// Bhaskaran): how many times the cell's revised D2 confidence exceeds
// its expectation, minus one, weighted by the cell's D2 mass.
type Lift struct{}

// Name implements Measure.
func (Lift) Name() string { return "lift" }

// Score implements Measure.
func (Lift) Score(s Stats) float64 {
	exp := s.RCf1 * s.Ratio
	if exp <= 0 || s.N2 == 0 {
		return 0
	}
	l := s.RCf2/exp - 1
	if l <= 0 {
		return 0
	}
	return l * float64(s.N2)
}

// Conviction adapts the conviction measure (Kannan & Bhaskaran):
// (1 − expected)/(1 − actual), sensitive to cells whose confidence
// approaches certainty. The ratio is clamped so a deterministic cell
// (actual = 1) stays finite and JSON-marshalable.
type Conviction struct{}

// convictionClamp bounds the denominator 1−rcf2 away from zero.
const convictionClamp = 1e-9

// Name implements Measure.
func (Conviction) Name() string { return "conviction" }

// Score implements Measure.
func (Conviction) Score(s Stats) float64 {
	if s.N2 == 0 {
		return 0
	}
	exp := math.Min(1, s.RCf1*s.Ratio)
	denom := 1 - s.RCf2
	if denom < convictionClamp {
		denom = convictionClamp
	}
	conv := (1-exp)/denom - 1
	if conv <= 0 {
		return 0
	}
	return conv * float64(s.N2)
}

// ByName resolves a measure from its wire name. The empty string means
// the default (paper) measure.
func ByName(name string) (Measure, error) {
	switch strings.ToLower(name) {
	case "", "paper", "m":
		return PaperM{}, nil
	case "lift":
		return Lift{}, nil
	case "conviction":
		return Conviction{}, nil
	}
	return nil, fmt.Errorf("drill: unknown measure %q (have paper, lift, conviction)", name)
}

// Options configures a drill-down. The zero value drills two
// conditions deep with a beam of 8 and the paper's measure.
type Options struct {
	// MaxDepth is the maximum number of drill conditions beyond the
	// comparison attribute. Zero means 2.
	MaxDepth int
	// Beam is the number of highest-scoring expandable nodes carried
	// to the next depth. Zero means 8.
	Beam int
	// MaxNodes caps the total candidate nodes created across the whole
	// run (the planner's work budget). Zero means 256.
	MaxNodes int
	// MinSupport is the minimum refined sub-population size, on both
	// sides, for a cell to become a finding. It also stands in for the
	// property-attribute screening at depth ≥ 2: a value occurring in
	// only one side never qualifies. Zero means 8.
	MinSupport int64
	// Measure scores candidate extensions. Nil means PaperM.
	Measure Measure
	// Compare configures the underlying comparison: CI level and
	// method, property threshold, and the candidate attribute
	// restriction (Compare.Attrs), all of which the planner honors at
	// every depth.
	Compare compare.Options
	// PartialOnDeadline makes DrillContext return the findings
	// collected so far — with the unexplored frontier annotated in
	// Result.Unexplored — when the context expires mid-search, instead
	// of failing the whole call.
	PartialOnDeadline bool
}

func (o Options) maxDepth() int {
	if o.MaxDepth <= 0 {
		return 2
	}
	return o.MaxDepth
}

func (o Options) beam() int {
	if o.Beam <= 0 {
		return 8
	}
	return o.Beam
}

func (o Options) maxNodes() int {
	if o.MaxNodes <= 0 {
		return 256
	}
	return o.MaxNodes
}

func (o Options) minSupport() int64 {
	if o.MinSupport <= 0 {
		return 8
	}
	return o.MinSupport
}

func (o Options) measure() Measure {
	if o.Measure == nil {
		return PaperM{}
	}
	return o.Measure
}

// Condition is one fixed attribute=value condition of a finding, with
// its display names resolved.
type Condition struct {
	Attr  int    `json:"attr"`
	Name  string `json:"name"`
	Value int32  `json:"value"`
	Label string `json:"label"`
}

// Finding is one scored condition path: the sub-populations
// D1 ∩ conds and D2 ∩ conds with their class counts and the measure
// score of the final condition at its parent node.
type Finding struct {
	// Conds lists the drill conditions beyond the comparison
	// attribute, in the order they were fixed.
	Conds []Condition `json:"conds"`
	// Depth is len(Conds).
	Depth int `json:"depth"`
	// Score is the measure score normalized by the parent node's
	// attainable maximum (cf2·|D2| at the node, Section IV.A), making
	// findings comparable across depths. Findings rank by Score.
	Score float64 `json:"score"`
	// Raw is the unnormalized measure score (for PaperM, the excess
	// class mass W in records).
	Raw float64 `json:"raw"`

	N1 int64 `json:"n1"` // refined D1 size
	C1 int64 `json:"c1"` // of those, class-of-interest rows
	N2 int64 `json:"n2"` // refined D2 size
	C2 int64 `json:"c2"` // of those, class-of-interest rows

	Cf1 float64 `json:"cf1"` // C1/N1
	Cf2 float64 `json:"cf2"` // C2/N2
}

// Label renders the finding's condition path as "Attr=value ∧ ...".
func (f Finding) Label() string {
	parts := make([]string, len(f.Conds))
	for i, c := range f.Conds {
		parts[i] = c.Name + "=" + c.Label
	}
	return strings.Join(parts, " ∧ ")
}

// key is the canonical identity of the finding's condition *set*,
// order-independent, used to deduplicate paths that fix the same
// conditions in different orders.
func (f Finding) key() string {
	pairs := make([]string, len(f.Conds))
	for i, c := range f.Conds {
		pairs[i] = strconv.Itoa(c.Attr) + "=" + strconv.FormatInt(int64(c.Value), 10)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// expandable reports whether the finding can serve as a frontier node:
// both refined confidences must be defined and nonzero so the node has
// a meaningful expectation ratio and normalization boundary.
func (f Finding) expandable() bool { return f.C1 > 0 && f.C2 > 0 }

// Result is a complete drill-down: the root comparison and every
// scored condition path, highest score first.
type Result struct {
	// Root is the one-condition comparison the drill-down started
	// from, oriented so Rule1 has the lower confidence.
	Root *compare.Result `json:"root"`
	// Findings lists every scored condition path, by descending Score.
	// Depth-1 findings restate the root ranking's per-value cells;
	// deeper findings are conjunctions no single attribute surfaces.
	Findings []Finding `json:"findings"`
	// Expanded counts the frontier nodes whose children were computed,
	// including the root.
	Expanded int `json:"expanded"`
	// Measure names the measure that scored the findings.
	Measure string `json:"measure"`
	// Partial is set when the search stopped early because the context
	// expired (with Options.PartialOnDeadline) or the node budget ran
	// out; what was not explored is annotated in Unexplored.
	Partial    bool                `json:"partial"`
	Unexplored []compare.ItemError `json:"unexplored,omitempty"`

	Options Options `json:"-"`
}

// Top returns the n highest-ranked findings.
func (r *Result) Top(n int) []Finding {
	if n > len(r.Findings) {
		n = len(r.Findings)
	}
	return r.Findings[:n]
}

// Planner runs drill-downs against a cube source.
type Planner struct {
	src *engine.LazySource
	ds  *dataset.Dataset
}

// New returns a Planner over the given cube source.
func New(src *engine.LazySource) *Planner {
	return &Planner{src: src, ds: src.Dataset()}
}

// site is one unit of frontier work: score candidate attribute cand
// inside the populations refined by parent's conditions.
type site struct {
	parent *Finding
	cand   int
}

// DrillContext runs the beam search. The context is checked once per
// (node, candidate attribute) pair; on expiry the call either fails or
// degrades to a partial result, per Options.PartialOnDeadline.
func (p *Planner) DrillContext(ctx context.Context, in compare.Input, opts Options) (*Result, error) {
	meas := opts.measure()
	root, err := compare.NewSource(p.src).CompareContext(ctx, in, opts.Compare)
	if err != nil {
		return nil, fmt.Errorf("drill: root comparison: %w", err)
	}

	res := &Result{Root: root, Measure: meas.Name(), Options: opts}
	split := in.Attr
	v1 := root.Rule1.Conditions[0].Value
	v2 := root.Rule2.Conditions[0].Value

	// Candidate condition attributes are exactly the attributes the
	// root ranking scored: this honors Options.Compare.Attrs and keeps
	// property attributes (whose values do not co-occur in both
	// sub-populations) out of the condition lattice.
	cands := make([]int, 0, len(root.Ranked))
	for _, s := range root.Ranked {
		cands = append(cands, s.Attr)
	}

	// Depth 1 comes straight from the root ranking's per-value cells —
	// no extra cube work.
	budget := opts.maxNodes()
	created := 0
	level := make([]Finding, 0, 16)
	rootDenom := root.Cf2 * float64(root.Rule2.CondCount)
	for _, s := range root.Ranked {
		for k := range s.Values {
			d := root.Detail(s, k)
			w := meas.Score(cellStats(d, root.Ratio))
			if w <= 0 || d.N1 < opts.minSupport() || d.N2 < opts.minSupport() {
				continue
			}
			if created >= budget {
				res.Partial = true
				res.Unexplored = append(res.Unexplored, compare.ItemError{
					Item: "depth 1 candidates",
					Err:  fmt.Sprintf("drill: node budget %d exhausted", budget),
				})
				break
			}
			created++
			f := Finding{
				Conds: []Condition{p.condition(s.Attr, d.Value)},
				Depth: 1,
				Raw:   w,
				N1:    d.N1, C1: d.C1, N2: d.N2, C2: d.C2,
				Cf1: d.Cf1, Cf2: d.Cf2,
			}
			if rootDenom > 0 {
				f.Score = w / rootDenom
			}
			level = append(level, f)
		}
		if res.Partial {
			break
		}
	}
	res.Findings = append(res.Findings, level...)
	res.Expanded = 1 // the root

search:
	for depth := 2; depth <= opts.maxDepth() && !res.Partial; depth++ {
		beam := selectBeam(level, opts.beam())
		if len(beam) == 0 {
			break
		}

		// Declare the whole frontier's cube working set in one batch so
		// a lazy source materializes every miss from one shared scan.
		var reqs [][]int
		var sites []site
		for i := range beam {
			f := &beam[i]
			used := map[int]bool{split: true}
			attrs := make([]int, 0, len(f.Conds)+2)
			attrs = append(attrs, split)
			for _, c := range f.Conds {
				used[c.Attr] = true
				attrs = append(attrs, c.Attr)
			}
			for _, a := range cands {
				if used[a] {
					continue
				}
				set := append(append([]int(nil), attrs...), a)
				sort.Ints(set)
				reqs = append(reqs, set)
				sites = append(sites, site{parent: f, cand: a})
			}
		}
		if len(sites) == 0 {
			break
		}
		cubes, err := p.src.Cubes(ctx, reqs)
		if err != nil {
			if !opts.PartialOnDeadline || ctx.Err() == nil {
				return nil, fmt.Errorf("drill: frontier cubes at depth %d: %w", depth, err)
			}
			res.Partial = true
			annotateSites(res, sites, p.ds, err)
			break
		}

		parents := make(map[*Finding]bool, len(beam))
		next := make([]Finding, 0, 16)
		for si, s := range sites {
			if err := ctxErrOrFault(ctx); err != nil {
				if !opts.PartialOnDeadline || ctx.Err() == nil {
					return nil, err
				}
				res.Partial = true
				annotateSites(res, sites[si:], p.ds, err)
				break search
			}
			children, full, err := p.expand(root, cubes[si], split, s.parent, s.cand, v1, v2, in.Class, meas, opts, &created, budget)
			if err != nil {
				return nil, err
			}
			parents[s.parent] = true
			next = append(next, children...)
			if full {
				res.Partial = true
				res.Unexplored = append(res.Unexplored, compare.ItemError{
					Item: fmt.Sprintf("depth %d frontier", depth),
					Err:  fmt.Sprintf("drill: node budget %d exhausted", budget),
				})
				next = dedupe(next)
				res.Findings = append(res.Findings, next...)
				res.Expanded += len(parents)
				break search
			}
		}
		next = dedupe(next)
		res.Findings = append(res.Findings, next...)
		res.Expanded += len(parents)
		level = next
	}

	sort.SliceStable(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		switch {
		case a.Score > b.Score:
			return true
		case b.Score > a.Score:
			return false
		case a.Depth != b.Depth:
			return a.Depth < b.Depth
		}
		return a.key() < b.key()
	})

	reg := obsv.Default()
	reg.Counter(obsv.DrillDownRunsCounterName).Inc()
	reg.Counter(obsv.DrillDownNodesCounterName).Add(int64(res.Expanded))
	return res, nil
}

// ctxErrOrFault mirrors compare.ctxOrFault for the drill loop.
func ctxErrOrFault(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return faultinject.HitContext(ctx, faultinject.SiteDrillNode)
}

// annotateSites records the frontier work a degraded run did not
// attempt.
func annotateSites(res *Result, sites []site, ds *dataset.Dataset, err error) {
	for _, s := range sites {
		res.Unexplored = append(res.Unexplored, compare.ItemError{
			Item: s.parent.Label() + " + " + ds.Attr(s.cand).Name,
			Err:  err.Error(),
		})
	}
}

// expand scores candidate attribute cand inside the populations
// refined by parent's conditions, using the (split × conds × cand)
// cube, and returns the qualifying child findings. Each cell's
// confidences come from the root comparison's arithmetic at the
// parent's ratio. full reports that the node budget ran out
// mid-expansion.
func (p *Planner) expand(root *compare.Result, cube *rulecube.Cube, split int, parent *Finding, cand int, v1, v2, class int32, meas Measure, opts Options, created *int, budget int) (children []Finding, full bool, err error) {
	// Fix the parent's conditions one slice at a time, reducing the
	// cube to the 2-D (split × cand) plane of the refined populations.
	c := cube
	for _, cond := range parent.Conds {
		pos := dimOf(c, cond.Attr)
		if pos < 0 {
			return nil, false, fmt.Errorf("drill: cube %v lacks condition attribute %d", c.AttrIndices(), cond.Attr)
		}
		c, err = c.Slice(pos, cond.Value)
		if err != nil {
			return nil, false, err
		}
	}
	posSplit, posCand := dimOf(c, split), dimOf(c, cand)
	if c.NumDims() != 2 || posSplit < 0 || posCand < 0 {
		return nil, false, fmt.Errorf("drill: reduced cube %v does not match attributes (%d,%d)", c.AttrIndices(), split, cand)
	}

	cf1 := float64(parent.C1) / float64(parent.N1)
	cf2 := float64(parent.C2) / float64(parent.N2)
	ratio := cf2 / cf1
	denom := cf2 * float64(parent.N2)

	coords := make([]int32, 2)
	cell := func(v, k int32) (n, cc int64, err error) {
		coords[posSplit], coords[posCand] = v, k
		if n, err = c.CondCount(coords); err != nil {
			return 0, 0, err
		}
		if cc, err = c.Count(coords, class); err != nil {
			return 0, 0, err
		}
		return n, cc, nil
	}
	card := c.Dim(posCand)
	for k := int32(0); int(k) < card; k++ {
		n1, c1, err := cell(v1, k)
		if err != nil {
			return nil, false, err
		}
		n2, c2, err := cell(v2, k)
		if err != nil {
			return nil, false, err
		}
		if n1 < opts.minSupport() || n2 < opts.minSupport() {
			continue
		}
		d := root.DetailAt(compare.ValueCounts{Value: k, N1: n1, N2: n2, C1: c1, C2: c2}, ratio)
		w := meas.Score(cellStats(d, ratio))
		if w <= 0 {
			continue
		}
		if *created >= budget {
			return children, true, nil
		}
		*created++
		f := Finding{
			Conds: append(append([]Condition(nil), parent.Conds...), p.condition(cand, k)),
			Depth: parent.Depth + 1,
			Raw:   w,
			N1:    n1, C1: c1, N2: n2, C2: c2,
			Cf1: d.Cf1, Cf2: d.Cf2,
		}
		if denom > 0 {
			f.Score = w / denom
		}
		children = append(children, f)
	}
	return children, false, nil
}

// condition resolves display names for one attribute=value pair.
func (p *Planner) condition(attr int, value int32) Condition {
	return Condition{
		Attr:  attr,
		Name:  p.ds.Attr(attr).Name,
		Value: value,
		Label: p.ds.Column(attr).Dict.Label(value),
	}
}

// dimOf returns the cube dimension position of the given dataset
// attribute, or -1.
func dimOf(c *rulecube.Cube, attr int) int {
	for pos, a := range c.AttrIndices() {
		if a == attr {
			return pos
		}
	}
	return -1
}

// selectBeam picks the highest-scoring expandable nodes of one depth
// level, deduplicated by condition set.
func selectBeam(level []Finding, width int) []Finding {
	beam := make([]Finding, 0, len(level))
	for _, f := range level {
		if f.expandable() {
			beam = append(beam, f)
		}
	}
	sort.SliceStable(beam, func(i, j int) bool { return beam[i].Score > beam[j].Score })
	if len(beam) > width {
		beam = beam[:width]
	}
	return beam
}

// dedupe collapses findings that fix the same condition set in
// different orders, keeping the highest-scoring path.
func dedupe(fs []Finding) []Finding {
	seen := make(map[string]int, len(fs))
	out := fs[:0]
	for _, f := range fs {
		k := f.key()
		if i, ok := seen[k]; ok {
			if f.Score > out[i].Score {
				out[i] = f
			}
			continue
		}
		seen[k] = len(out)
		out = append(out, f)
	}
	return out
}
