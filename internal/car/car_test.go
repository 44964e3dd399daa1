package car

import (
	"math"
	"strings"
	"testing"

	"opmap/internal/dataset"
)

// paperFig1Dataset reproduces the Fig. 1 rule-cube example: attributes
// A1 ∈ {a,b,c,d}, A2 ∈ {e,f,g}, class ∈ {yes,no}, 1158 records, with the
// cell (A1=a, A2=e, yes) holding 100 records and (A1=a, A2=e, no) 50.
func paperFig1Dataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "A1", Kind: dataset.Categorical},
			{Name: "A2", Kind: dataset.Categorical},
			{Name: "C", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.WithDict(0, dataset.DictionaryOf("a", "b", "c", "d"))
	b.WithDict(1, dataset.DictionaryOf("e", "f", "g"))
	b.WithDict(2, dataset.DictionaryOf("yes", "no"))
	add := func(a1, a2, c string, n int) {
		for i := 0; i < n; i++ {
			if err := b.AddRow([]string{a1, a2, c}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Fig. 1's highlighted cells plus filler to reach 1158 records.
	add("a", "e", "yes", 100)
	add("a", "e", "no", 50)
	add("a", "g", "yes", 8) // A1=a, A2=f, yes has support 0 per the paper
	add("b", "e", "yes", 200)
	add("b", "f", "no", 150)
	add("c", "f", "yes", 150)
	add("c", "g", "no", 200)
	add("d", "g", "yes", 150)
	add("d", "e", "no", 150)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 1158 {
		t.Fatalf("fixture has %d rows, want 1158", ds.NumRows())
	}
	return ds
}

func find(rs *RuleSet, ds *dataset.Dataset, spec string) (Rule, bool) {
	for _, r := range rs.Rules {
		if strings.HasPrefix(r.Format(ds), spec) {
			return r, true
		}
	}
	return Rule{}, false
}

func TestMineReproducesPaperExample(t *testing.T) {
	ds := paperFig1Dataset(t)
	rs, err := Mine(ds, Options{MaxConditions: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rule A1=a, A2=e -> yes: support 100/1158, confidence 100/150.
	r, ok := find(rs, ds, "A1=a, A2=e -> yes")
	if !ok {
		t.Fatal("paper's example rule not mined")
	}
	if r.SupCount != 100 || r.CondCount != 150 {
		t.Errorf("counts = %d/%d, want 100/150", r.SupCount, r.CondCount)
	}
	if math.Abs(r.Support()-100.0/1158) > 1e-12 {
		t.Errorf("support = %v, want %v", r.Support(), 100.0/1158)
	}
	if math.Abs(r.Confidence()-100.0/150) > 1e-12 {
		t.Errorf("confidence = %v, want %v", r.Confidence(), 100.0/150)
	}
}

func TestMineZeroThresholdCoversAllObservedCells(t *testing.T) {
	ds := paperFig1Dataset(t)
	rs, err := Mine(ds, Options{MaxConditions: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With thresholds 0, every observed (A1,A2) pair appears with every
	// class that occurs in it; single-condition rules too.
	var oneCond, twoCond int
	for _, r := range rs.Rules {
		switch len(r.Conditions) {
		case 1:
			oneCond++
		case 2:
			twoCond++
		default:
			t.Fatalf("rule with %d conditions beyond MaxConditions", len(r.Conditions))
		}
	}
	if oneCond == 0 || twoCond == 0 {
		t.Fatalf("rule lengths missing: one=%d two=%d", oneCond, twoCond)
	}
	// A rule that truly has zero condition count must not appear (its
	// cell is a hole, represented in cubes, not in the mined set).
	if _, ok := find(rs, ds, "A1=a, A2=f ->"); ok {
		t.Error("zero-support condition set should not yield rules")
	}
}

func TestMineThresholds(t *testing.T) {
	ds := paperFig1Dataset(t)
	rs, err := Mine(ds, Options{MinSupport: 0.1, MinConfidence: 0.6, MaxConditions: 2})
	if err != nil {
		t.Fatal(err)
	}
	minSup := 0.1
	minCount := int64(minSup * 1158)
	for _, r := range rs.Rules {
		if r.SupCount < minCount {
			t.Errorf("rule %s below min support", r.Format(ds))
		}
		if r.Confidence() < 0.6 {
			t.Errorf("rule %s below min confidence", r.Format(ds))
		}
	}
	if rs.Len() == 0 {
		t.Error("thresholded mining found nothing")
	}
}

func TestMineRestricted(t *testing.T) {
	ds := paperFig1Dataset(t)
	fixed := []Condition{{Attr: 0, Value: 0}} // A1=a
	rs, err := Mine(ds, Options{MaxConditions: 1, Fixed: fixed})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("restricted mining found nothing")
	}
	for _, r := range rs.Rules {
		hasFixed := false
		for _, c := range r.Conditions {
			if c.Attr == 0 && c.Value == 0 {
				hasFixed = true
			}
		}
		if !hasFixed {
			t.Errorf("rule %s lacks the fixed condition", r.Format(ds))
		}
	}
	// Counts are measured in the restricted sub-population: confidence
	// of A1=a, A2=e -> yes is still 100/150.
	r, ok := find(rs, ds, "A1=a, A2=e -> yes")
	if !ok {
		t.Fatal("restricted rule missing")
	}
	if r.SupCount != 100 || r.CondCount != 150 {
		t.Errorf("restricted counts %d/%d, want 100/150", r.SupCount, r.CondCount)
	}
}

func TestMineAttrSubset(t *testing.T) {
	ds := paperFig1Dataset(t)
	rs, err := Mine(ds, Options{MaxConditions: 2, Attrs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Rules {
		for _, c := range r.Conditions {
			if c.Attr != 1 {
				t.Fatalf("rule uses attribute %d outside the subset", c.Attr)
			}
		}
	}
}

func TestMineValidation(t *testing.T) {
	ds := paperFig1Dataset(t)
	if _, err := Mine(ds, Options{MinSupport: -1}); err == nil {
		t.Error("negative support should fail")
	}
	if _, err := Mine(ds, Options{MinConfidence: 2}); err == nil {
		t.Error("confidence > 1 should fail")
	}
	if _, err := Mine(ds, Options{Fixed: []Condition{{Attr: 2, Value: 0}}}); err == nil {
		t.Error("fixed condition on class should fail")
	}
	if _, err := Mine(ds, Options{Attrs: []int{2}}); err == nil {
		t.Error("class attribute in Attrs should fail")
	}
	if _, err := Mine(ds, Options{Attrs: []int{99}}); err == nil {
		t.Error("out-of-range attribute should fail")
	}
}

func TestMineRejectsContinuous(t *testing.T) {
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 1,
	})
	b.AddRow([]string{"1.0", "yes"})
	ds, _ := b.Build()
	if _, err := Mine(ds, Options{}); err == nil {
		t.Error("continuous dataset should be rejected")
	}
}

func TestMineThreeConditionRules(t *testing.T) {
	// Add a third attribute and mine length-3 rules.
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "A1", Kind: dataset.Categorical},
			{Name: "A2", Kind: dataset.Categorical},
			{Name: "A3", Kind: dataset.Categorical},
			{Name: "C", Kind: dataset.Categorical},
		},
		ClassIndex: 3,
	})
	rows := [][]string{
		{"x", "p", "m", "yes"},
		{"x", "p", "m", "yes"},
		{"x", "p", "n", "no"},
		{"y", "q", "m", "no"},
		{"y", "q", "n", "no"},
	}
	for _, r := range rows {
		if err := b.AddRow(r); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Mine(ds, Options{MaxConditions: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := find(rs, ds, "A1=x, A2=p, A3=m -> yes")
	if !ok {
		t.Fatal("3-condition rule not mined")
	}
	if r.SupCount != 2 || r.CondCount != 2 {
		t.Errorf("counts %d/%d, want 2/2", r.SupCount, r.CondCount)
	}
}

func TestMineNoDuplicateRules(t *testing.T) {
	ds := paperFig1Dataset(t)
	rs, err := Mine(ds, Options{MaxConditions: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range rs.Rules {
		key := r.Format(ds)
		if seen[key] {
			t.Fatalf("duplicate rule %s", key)
		}
		seen[key] = true
	}
}

func TestSortByConfidence(t *testing.T) {
	ds := paperFig1Dataset(t)
	rs, err := Mine(ds, Options{MaxConditions: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs.SortByConfidence()
	for i := 1; i < rs.Len(); i++ {
		if rs.Rules[i].Confidence() > rs.Rules[i-1].Confidence()+1e-12 {
			t.Fatalf("rules not sorted at %d", i)
		}
	}
}

func TestRuleFormatWithoutDataset(t *testing.T) {
	r := Rule{
		Conditions: []Condition{{Attr: 3, Value: 2}},
		Class:      1,
		SupCount:   5,
		CondCount:  10,
		Total:      100,
	}
	s := r.String()
	if !strings.Contains(s, "A3=2") || !strings.Contains(s, "class 1") {
		t.Errorf("format = %q", s)
	}
	empty := Rule{Total: 10}
	if !strings.Contains(empty.String(), "true") {
		t.Error("empty-condition rule should render as 'true -> ...'")
	}
}
