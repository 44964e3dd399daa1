package opmap

import (
	"fmt"
	"sort"

	"opmap/internal/baseline"
	"opmap/internal/car"
)

// Rule is a mined class association rule presented with resolved labels.
type Rule struct {
	// Conditions are "attr=value" pairs in attribute order.
	Conditions []RuleCondition
	Class      string
	Support    float64
	Confidence float64
	// SupCount and CondCount are the absolute counts behind the ratios.
	SupCount, CondCount int64
}

// RuleCondition is one attribute=value test of a rule.
type RuleCondition struct {
	Attr  string
	Value string
}

// String renders the rule in the paper's "X -> y" form.
func (r Rule) String() string {
	s := ""
	for i, c := range r.Conditions {
		if i > 0 {
			s += ", "
		}
		s += c.Attr + "=" + c.Value
	}
	if s == "" {
		s = "true"
	}
	return fmt.Sprintf("%s -> %s [sup=%.4f conf=%.4f]", s, r.Class, r.Support, r.Confidence)
}

// MineOptions configures class association rule mining.
type MineOptions struct {
	MinSupport    float64 // relative; rule cubes use 0
	MinConfidence float64
	MaxConditions int // zero means 2 (the deployed system's default)
	// Fixed pins conditions every rule must contain (restricted mining
	// for longer rules, Section III.B). Keys are attribute names.
	Fixed map[string]string
	// Attrs restricts candidate attributes by name; nil means all.
	Attrs []string
}

// MineRules runs the CAR generator over the working dataset.
func (s *Session) MineRules(opts MineOptions) ([]Rule, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, err := s.working()
	if err != nil {
		return nil, err
	}
	copts := car.Options{
		MinSupport:    opts.MinSupport,
		MinConfidence: opts.MinConfidence,
		MaxConditions: opts.MaxConditions,
	}
	for name, val := range opts.Fixed {
		a := ds.AttrIndex(name)
		if a < 0 {
			return nil, fmt.Errorf("opmap: unknown attribute %q in Fixed", name)
		}
		code, ok := ds.Column(a).Dict.Lookup(val)
		if !ok {
			return nil, fmt.Errorf("opmap: attribute %q has no value %q", name, val)
		}
		copts.Fixed = append(copts.Fixed, car.Condition{Attr: a, Value: code})
	}
	sort.Slice(copts.Fixed, func(i, j int) bool { return copts.Fixed[i].Attr < copts.Fixed[j].Attr })
	if opts.Attrs != nil {
		for _, n := range opts.Attrs {
			a := ds.AttrIndex(n)
			if a < 0 {
				return nil, fmt.Errorf("opmap: unknown attribute %q in Attrs", n)
			}
			copts.Attrs = append(copts.Attrs, a)
		}
	}
	rs, err := car.Mine(ds, copts)
	if err != nil {
		return nil, err
	}
	rs.SortByConfidence()
	out := make([]Rule, 0, rs.Len())
	for _, r := range rs.Rules {
		out = append(out, s.wrapRule(r))
	}
	return out, nil
}

func (s *Session) wrapRule(r car.Rule) Rule {
	ds := s.ds
	out := Rule{
		Class:      ds.ClassDict().Label(r.Class),
		Support:    r.Support(),
		Confidence: r.Confidence(),
		SupCount:   r.SupCount,
		CondCount:  r.CondCount,
	}
	for _, c := range r.Conditions {
		out.Conditions = append(out.Conditions, RuleCondition{
			Attr:  ds.Attr(c.Attr).Name,
			Value: ds.Column(c.Attr).Dict.Label(c.Value),
		})
	}
	return out
}

// RankedRule pairs a rule with its value under a classical
// interestingness measure (the rule-ranking baseline of Section II).
type RankedRule struct {
	Rule  Rule
	Value float64
}

// RankRules mines rules and ranks them by a named classical measure:
// one of "confidence", "support", "lift", "leverage", "conviction",
// "chi-squared", "laplace", "cosine", "jaccard", "certainty",
// "added-value".
func (s *Session) RankRules(measure string, opts MineOptions) ([]RankedRule, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, err := s.working()
	if err != nil {
		return nil, err
	}
	var m baseline.Measure
	found := false
	for _, cand := range baseline.AllMeasures() {
		if cand.String() == measure {
			m = cand
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("opmap: unknown measure %q", measure)
	}
	copts := car.Options{
		MinSupport:    opts.MinSupport,
		MinConfidence: opts.MinConfidence,
		MaxConditions: opts.MaxConditions,
	}
	rs, err := car.Mine(ds, copts)
	if err != nil {
		return nil, err
	}
	ranked, err := baseline.RankRules(ds, rs, m)
	if err != nil {
		return nil, err
	}
	out := make([]RankedRule, 0, len(ranked))
	for _, rr := range ranked {
		out = append(out, RankedRule{Rule: s.wrapRule(rr.Rule), Value: rr.Value})
	}
	return out, nil
}

// QueryRules mines rules and filters them with a query string — the
// rule-query baseline of Section II ("our users did not know what to
// ask"; provided for the cases where they do). Clauses are joined by
// "and": `class=dropped and Phone-Model=ph2 and conf >= 0.05 and len <= 2`;
// `attr=Name` matches rules mentioning the attribute; sup/conf/len take
// comparison operators.
func (s *Session) QueryRules(query string, opts MineOptions) ([]Rule, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, err := s.working()
	if err != nil {
		return nil, err
	}
	q, err := baseline.ParseRuleQuery(ds, query)
	if err != nil {
		return nil, err
	}
	rs, err := car.Mine(ds, car.Options{
		MinSupport:    opts.MinSupport,
		MinConfidence: opts.MinConfidence,
		MaxConditions: opts.MaxConditions,
	})
	if err != nil {
		return nil, err
	}
	matches := q.Apply(ds, rs)
	out := make([]Rule, 0, len(matches))
	for _, r := range matches {
		out = append(out, s.wrapRule(r))
	}
	return out, nil
}

// CompletenessReport quantifies Section III.A's completeness problem:
// how few rules a decision-tree classifier surfaces compared with
// exhaustive CAR mining at the same maximum rule length.
type CompletenessReport struct {
	TreeRules     int
	CARRules      int
	CoverageRatio float64
	TreeAccuracy  float64
}

// Completeness learns a decision tree on the working dataset, mines the
// exhaustive CAR rule set with the same maximum length, and reports the
// ratio.
func (s *Session) Completeness(maxConditions int) (CompletenessReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, err := s.working()
	if err != nil {
		return CompletenessReport{}, err
	}
	topts := baseline.TreeOptions{MaxDepth: maxConditions}
	rep, err := baseline.Completeness(ds, topts, car.Options{MaxConditions: maxConditions})
	if err != nil {
		return CompletenessReport{}, err
	}
	tree, err := baseline.Learn(ds, topts)
	if err != nil {
		return CompletenessReport{}, err
	}
	return CompletenessReport{
		TreeRules:     rep.TreeRules,
		CARRules:      rep.CARRules,
		CoverageRatio: rep.CoverageRatio,
		TreeAccuracy:  tree.Accuracy(ds),
	}, nil
}
