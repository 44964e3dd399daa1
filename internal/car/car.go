// Package car implements class association rule (CAR) mining: rules of
// the form X -> y where X is a set of attribute=value conditions over
// distinct attributes and y is a class label (Section III.A of the
// paper, following Liu et al.'s CBA rule generator). Unlike a
// classification learner, the miner enumerates *all* rules meeting the
// support and confidence thresholds — the completeness property the
// paper argues is essential for diagnostic mining.
package car

import (
	"fmt"
	"sort"
	"strings"

	"opmap/internal/dataset"
)

// Condition is a single attribute=value test.
type Condition struct {
	Attr  int   // attribute index in the dataset schema
	Value int32 // dictionary code of the value
}

// Rule is a class association rule X -> class with its statistics.
type Rule struct {
	Conditions []Condition // sorted by attribute index; distinct attributes
	Class      int32       // class code
	SupCount   int64       // records matching conditions AND class
	CondCount  int64       // records matching conditions
	Total      int64       // dataset size when mined
}

// Support returns the rule's relative support sup(X, y)/|D|.
func (r Rule) Support() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.SupCount) / float64(r.Total)
}

// Confidence returns Pr(y | X) = sup(X, y)/sup(X).
func (r Rule) Confidence() float64 {
	if r.CondCount == 0 {
		return 0
	}
	return float64(r.SupCount) / float64(r.CondCount)
}

// String renders the rule with attribute and value labels from ds.
func (r Rule) String() string { return r.Format(nil) }

// Format renders the rule; with a non-nil dataset the attribute and
// value names are resolved, otherwise indices are printed.
func (r Rule) Format(ds *dataset.Dataset) string {
	var sb strings.Builder
	for i, c := range r.Conditions {
		if i > 0 {
			sb.WriteString(", ")
		}
		if ds != nil {
			fmt.Fprintf(&sb, "%s=%s", ds.Attr(c.Attr).Name, ds.Column(c.Attr).Dict.Label(c.Value))
		} else {
			fmt.Fprintf(&sb, "A%d=%d", c.Attr, c.Value)
		}
	}
	if len(r.Conditions) == 0 {
		sb.WriteString("true")
	}
	if ds != nil {
		fmt.Fprintf(&sb, " -> %s", ds.ClassDict().Label(r.Class))
	} else {
		fmt.Fprintf(&sb, " -> class %d", r.Class)
	}
	fmt.Fprintf(&sb, " [sup=%.4f conf=%.4f]", r.Support(), r.Confidence())
	return sb.String()
}

// Options configures mining.
type Options struct {
	// MinSupport is the minimum relative support in [0,1]. The rule-cube
	// pipeline mines with 0 to avoid holes in the knowledge space.
	MinSupport float64
	// MinConfidence is the minimum confidence in [0,1].
	MinConfidence float64
	// MaxConditions caps rule length. The deployed system stores
	// two-condition rules (all 3-D rule cubes); zero means 2.
	MaxConditions int
	// Fixed pins conditions that every mined rule must contain
	// ("restricted mining" for longer rules, Section III.B). The
	// attributes in Fixed do not count against MaxConditions.
	Fixed []Condition
	// Attrs restricts the candidate attributes (class excluded
	// automatically). Nil means all non-class attributes.
	Attrs []int
}

// RuleSet is the result of a mining run.
type RuleSet struct {
	Rules []Rule
	Total int64 // records mined over
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.Rules) }

// SortByConfidence orders rules by descending confidence, breaking ties
// by descending support then ascending condition count — the CBA
// precedence order.
func (rs *RuleSet) SortByConfidence() {
	sort.SliceStable(rs.Rules, func(i, j int) bool {
		a, b := rs.Rules[i], rs.Rules[j]
		switch {
		case a.Confidence() > b.Confidence():
			return true
		case b.Confidence() > a.Confidence():
			return false
		}
		if a.SupCount != b.SupCount {
			return a.SupCount > b.SupCount
		}
		return len(a.Conditions) < len(b.Conditions)
	})
}

// Mine enumerates class association rules of ds under the options using
// level-wise (Apriori-style) candidate generation over condition sets,
// with class-conditional counting. ds must be fully categorical.
func Mine(ds *dataset.Dataset, opts Options) (*RuleSet, error) {
	if !ds.AllCategorical() {
		return nil, fmt.Errorf("car: dataset has continuous attributes; discretize first")
	}
	if opts.MinSupport < 0 || opts.MinSupport > 1 {
		return nil, fmt.Errorf("car: MinSupport %v out of [0,1]", opts.MinSupport)
	}
	if opts.MinConfidence < 0 || opts.MinConfidence > 1 {
		return nil, fmt.Errorf("car: MinConfidence %v out of [0,1]", opts.MinConfidence)
	}
	maxLen := opts.MaxConditions
	if maxLen == 0 {
		maxLen = 2
	}

	classIdx := ds.ClassIndex()
	numClasses := ds.NumClasses()
	total := int64(ds.NumRows())
	minCount := int64(opts.MinSupport * float64(total))

	// Restrict to the fixed-condition sub-population first.
	work := ds
	if len(opts.Fixed) > 0 {
		for _, f := range opts.Fixed {
			if f.Attr == classIdx {
				return nil, fmt.Errorf("car: fixed condition on class attribute")
			}
		}
		work = ds.Filter(func(r int) bool {
			for _, f := range opts.Fixed {
				if ds.CatCode(r, f.Attr) != f.Value {
					return false
				}
			}
			return true
		})
	}

	candidateAttrs := opts.Attrs
	if candidateAttrs == nil {
		for a := 0; a < ds.NumAttrs(); a++ {
			if a != classIdx {
				candidateAttrs = append(candidateAttrs, a)
			}
		}
	} else {
		for _, a := range candidateAttrs {
			if a < 0 || a >= ds.NumAttrs() {
				return nil, fmt.Errorf("car: attribute index %d out of range", a)
			}
			if a == classIdx {
				return nil, fmt.Errorf("car: class attribute cannot be a rule condition")
			}
		}
	}
	fixedAttrs := make(map[int]bool, len(opts.Fixed))
	for _, f := range opts.Fixed {
		fixedAttrs[f.Attr] = true
	}
	var attrs []int
	for _, a := range candidateAttrs {
		if !fixedAttrs[a] {
			attrs = append(attrs, a)
		}
	}
	sort.Ints(attrs)

	rs := &RuleSet{Total: total}
	// Level-wise frontier of condition sets that remain frequent.
	type node struct {
		conds []Condition
		rows  []int32 // row indices within work matching conds; nil at level 0 meaning "all"
	}
	frontier := []node{{}}
	for level := 1; level <= maxLen; level++ {
		var next []node
		for _, nd := range frontier {
			lastAttr := -1
			if len(nd.conds) > 0 {
				lastAttr = nd.conds[len(nd.conds)-1].Attr
			}
			for _, a := range attrs {
				if a <= lastAttr {
					continue // enforce sorted attribute order to avoid duplicates
				}
				card := work.Cardinality(a)
				// Partition the node's rows by attribute a's value and class.
				counts := make([]int64, card)                 // per value
				classCounts := make([]int64, card*numClasses) // per (value, class)
				iterate(work, nd.rows, func(r int32) {
					code := work.CatCode(int(r), a)
					if code < 0 {
						return
					}
					counts[code]++
					cc := work.ClassCode(int(r))
					if cc >= 0 {
						classCounts[int(code)*numClasses+int(cc)]++
					}
				})
				for v := int32(0); int(v) < card; v++ {
					condCount := counts[v]
					if condCount < minCount || condCount == 0 {
						continue
					}
					conds := append(append([]Condition{}, nd.conds...), Condition{Attr: a, Value: v})
					// Emit a rule per class meeting the thresholds.
					for c := 0; c < numClasses; c++ {
						supCount := classCounts[int(v)*numClasses+c]
						if supCount < minCount {
							continue
						}
						conf := float64(supCount) / float64(condCount)
						if conf < opts.MinConfidence {
							continue
						}
						full := append(append([]Condition{}, opts.Fixed...), conds...)
						sortConds(full)
						rs.Rules = append(rs.Rules, Rule{
							Conditions: full,
							Class:      int32(c),
							SupCount:   supCount,
							CondCount:  condCount,
							Total:      total,
						})
					}
					if level < maxLen {
						rows := collect(work, nd.rows, a, v)
						next = append(next, node{conds: conds, rows: rows})
					}
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return rs, nil
}

// iterate calls f for each row in rows, or for every row when rows is
// nil (the level-0 "all rows" sentinel).
func iterate(ds *dataset.Dataset, rows []int32, f func(int32)) {
	if rows == nil {
		for r := 0; r < ds.NumRows(); r++ {
			f(int32(r))
		}
		return
	}
	for _, r := range rows {
		f(r)
	}
}

func collect(ds *dataset.Dataset, rows []int32, attr int, value int32) []int32 {
	var out []int32
	iterate(ds, rows, func(r int32) {
		if ds.CatCode(int(r), attr) == value {
			out = append(out, r)
		}
	})
	if out == nil {
		out = []int32{}
	}
	return out
}

func sortConds(conds []Condition) {
	sort.Slice(conds, func(i, j int) bool { return conds[i].Attr < conds[j].Attr })
}
