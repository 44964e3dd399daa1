package baseline

import (
	"context"
	"math"
	"testing"

	"opmap/internal/car"
	"opmap/internal/dataset"
	"opmap/internal/rulecube"
	"opmap/internal/workload"
)

func callLog(t testing.TB, records int) *dataset.Dataset {
	t.Helper()
	ds, _, err := workload.CallLog(workload.CallLogConfig{Seed: 11, Records: records, NoiseAttrs: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestEvaluateMeasures(t *testing.T) {
	// Rule with nxy=30, nx=100, ny=200, n=1000.
	r := car.Rule{SupCount: 30, CondCount: 100, Total: 1000}
	classCount := int64(200)
	cases := []struct {
		m    Measure
		want float64
	}{
		{Confidence, 0.3},
		{Support, 0.03},
		{Lift, 0.03 / (0.1 * 0.2)},
		{Leverage, 0.03 - 0.1*0.2},
		{Conviction, (1 - 0.2) / (1 - 0.3)},
		{Laplace, 31.0 / 102},
		{Cosine, 30 / math.Sqrt(100*200)},
		{Jaccard, 30.0 / (100 + 200 - 30)},
		{Certainty, (0.3 - 0.2) / (1 - 0.2)},
		{AddedValue, 0.3 - 0.2},
	}
	for _, c := range cases {
		got, err := Evaluate(c.m, r, classCount)
		if err != nil {
			t.Fatalf("%v: %v", c.m, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v = %v, want %v", c.m, got, c.want)
		}
	}
}

func TestEvaluateChiSquared(t *testing.T) {
	r := car.Rule{SupCount: 30, CondCount: 100, Total: 1000}
	got, err := Evaluate(ChiSquared, r, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the generic contingency implementation.
	want, _, err := chiFromCounts(30, 100, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("chi2 = %v, want %v", got, want)
	}
}

func chiFromCounts(nxy, nx, ny, n int64) (float64, int, error) {
	tab := [][]int64{
		{nxy, nx - nxy},
		{ny - nxy, n - nx - ny + nxy},
	}
	// stats.ChiSquare is in another package; inline Pearson here.
	var rt, ct [2]float64
	var g float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			rt[i] += float64(tab[i][j])
			ct[j] += float64(tab[i][j])
			g += float64(tab[i][j])
		}
	}
	var chi float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			e := rt[i] * ct[j] / g
			d := float64(tab[i][j]) - e
			chi += d * d / e
		}
	}
	return chi, 1, nil
}

func TestEvaluateEdgeCases(t *testing.T) {
	// Perfect confidence → infinite conviction.
	r := car.Rule{SupCount: 10, CondCount: 10, Total: 100}
	v, err := Evaluate(Conviction, r, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, 1) {
		t.Errorf("conviction = %v, want +Inf", v)
	}
	// Zero total errors.
	if _, err := Evaluate(Lift, car.Rule{}, 0); err == nil {
		t.Error("zero total should fail")
	}
	// Inconsistent counts error.
	if _, err := Evaluate(Lift, car.Rule{SupCount: 10, CondCount: 5, Total: 100}, 50); err == nil {
		t.Error("nxy > nx should fail")
	}
}

func TestMeasureStrings(t *testing.T) {
	for _, m := range AllMeasures() {
		if m.String() == "" || m.String()[0] == 'M' {
			t.Errorf("measure %d has bad name %q", m, m.String())
		}
	}
	if Measure(200).String() == "" {
		t.Error("unknown measure should render")
	}
	if len(AllMeasures()) != 11 {
		t.Errorf("AllMeasures returned %d, want 11", len(AllMeasures()))
	}
}

func TestRankRulesOrdering(t *testing.T) {
	ds := callLog(t, 20000)
	rs, err := car.Mine(ds, car.Options{MaxConditions: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := RankRules(ds, rs, Lift)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != rs.Len() {
		t.Fatalf("ranked %d of %d rules", len(ranked), rs.Len())
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Value > ranked[i-1].Value+1e-12 {
			t.Fatal("rules not sorted descending")
		}
	}
}

func TestDecisionTreeLearnsPlantedSignal(t *testing.T) {
	ds := callLog(t, 40000)
	tree, err := Learn(ds, TreeOptions{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves() == 0 {
		t.Fatal("tree has no leaves")
	}
	acc := tree.Accuracy(ds)
	// The majority class is ~96%, so accuracy must be at least that.
	if acc < 0.9 {
		t.Errorf("training accuracy %.3f unexpectedly low", acc)
	}
	if dump := tree.Dump(); dump == "" {
		t.Error("Dump is empty")
	}
}

func TestDecisionTreePureLeaf(t *testing.T) {
	// A perfectly separable dataset: one split, pure leaves.
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Categorical},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 1,
	})
	for i := 0; i < 100; i++ {
		v, c := "a", "neg"
		if i%2 == 0 {
			v, c = "b", "pos"
		}
		b.AddRow([]string{v, c})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Learn(ds, TreeOptions{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(ds); acc != 1 {
		t.Errorf("separable data accuracy = %v, want 1", acc)
	}
	if tree.Root.IsLeaf() {
		t.Error("root should split")
	}
}

func TestDecisionTreeRejectsContinuous(t *testing.T) {
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 1,
	})
	b.AddRow([]string{"1", "y"})
	ds, _ := b.Build()
	if _, err := Learn(ds, TreeOptions{}); err == nil {
		t.Error("continuous dataset should be rejected")
	}
}

// TestCompletenessProblem quantifies Section III.A: the tree's rule
// count must be a small fraction of the exhaustive CAR rule set.
func TestCompletenessProblem(t *testing.T) {
	ds := callLog(t, 30000)
	rep, err := Completeness(ds, TreeOptions{MaxDepth: 2}, car.Options{MaxConditions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CARRules == 0 || rep.TreeRules == 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
	if rep.CoverageRatio > 0.2 {
		t.Errorf("tree covers %.1f%% of the rule space; the completeness problem should be visible (<20%%)", 100*rep.CoverageRatio)
	}
}

func TestTreeRulesConsistency(t *testing.T) {
	ds := callLog(t, 20000)
	tree, err := Learn(ds, TreeOptions{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tree.Rules() {
		if r.SupCount > r.CondCount {
			t.Fatalf("rule %v has sup > cond", r)
		}
		if r.CondCount == 0 {
			t.Fatal("empty leaf rule")
		}
		// Conditions must use distinct attributes in sorted order.
		for i := 1; i < len(r.Conditions); i++ {
			if r.Conditions[i].Attr <= r.Conditions[i-1].Attr {
				t.Fatal("conditions not sorted/distinct")
			}
		}
	}
}

func TestExploreCubeFindsPlantedCell(t *testing.T) {
	// Build a 2-attribute dataset with an interaction cell: A=a2 & B=b1
	// has 60% positives, all else 10%.
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "A", Kind: dataset.Categorical},
			{Name: "B", Kind: dataset.Categorical},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	b.WithDict(0, dataset.DictionaryOf("a0", "a1", "a2", "a3"))
	b.WithDict(1, dataset.DictionaryOf("b0", "b1", "b2"))
	b.WithDict(2, dataset.DictionaryOf("neg", "pos"))
	for av := int32(0); av < 4; av++ {
		for bv := int32(0); bv < 3; bv++ {
			pos := 20
			if av == 2 && bv == 1 {
				pos = 120
			}
			for i := 0; i < pos; i++ {
				b.AddCodedRow([]int32{av, bv, 1}, nil)
			}
			for i := 0; i < 200-pos; i++ {
				b.AddCodedRow([]int32{av, bv, 0}, nil)
			}
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cubes, err := rulecube.BuildMany(context.Background(), ds, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cube := cubes[0]
	// With an additive model the interaction leaks into the planted
	// cell's row and column effects, so its standardized residual sits
	// near 2.45; probe with a threshold of 2.
	exs, err := ExploreCube(cube, ExplorerOptions{Class: 1, MinSelfExp: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) == 0 {
		t.Fatal("planted interaction cell not found")
	}
	top := exs[0]
	if top.Labels[0] != "a2" || top.Labels[1] != "b1" {
		t.Errorf("top exception at (%s,%s), want (a2,b1)", top.Labels[0], top.Labels[1])
	}
	if top.SelfExp < 2 {
		t.Errorf("SelfExp = %v", top.SelfExp)
	}
	if top.Observed != 0.6 {
		t.Errorf("observed = %v, want 0.6", top.Observed)
	}
}

func TestExploreCubeNoSignal(t *testing.T) {
	// Uniform confidences → no exceptions.
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "A", Kind: dataset.Categorical},
			{Name: "B", Kind: dataset.Categorical},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	b.WithDict(0, dataset.DictionaryOf("a0", "a1", "a2"))
	b.WithDict(1, dataset.DictionaryOf("b0", "b1", "b2"))
	b.WithDict(2, dataset.DictionaryOf("neg", "pos"))
	for av := int32(0); av < 3; av++ {
		for bv := int32(0); bv < 3; bv++ {
			for i := 0; i < 90; i++ {
				b.AddCodedRow([]int32{av, bv, 0}, nil)
			}
			for i := 0; i < 10; i++ {
				b.AddCodedRow([]int32{av, bv, 1}, nil)
			}
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cubes, err := rulecube.BuildMany(context.Background(), ds, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cube := cubes[0]
	exs, err := ExploreCube(cube, ExplorerOptions{Class: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) != 0 {
		t.Errorf("uniform cube produced %d exceptions", len(exs))
	}
}

func TestExploreCubeRejects2D(t *testing.T) {
	ds := callLog(t, 1000)
	cubes, err := rulecube.BuildMany(context.Background(), ds, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	cube := cubes[0]
	if _, err := ExploreCube(cube, ExplorerOptions{}); err == nil {
		t.Error("2-D cube should be rejected")
	}
}

// TestExploreStore runs ExploreCube over every pair cube of a store,
// as the session's CubeExceptions does.
func TestExploreStore(t *testing.T) {
	ds := callLog(t, 30000)
	attrs, err := rulecube.NormalizeAttrs(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	cubes, err := rulecube.BuildMany(context.Background(), ds, rulecube.StoreRequests(attrs))
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, c := range cubes[len(attrs):] {
		ex, err := ExploreCube(c, ExplorerOptions{Class: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(ex) > 0 {
			pairs++
		}
	}
	// The planted Phone-Model × Time-of-Call interaction should surface
	// in at least one pair.
	if pairs == 0 {
		t.Error("no exceptional pairs found in planted data")
	}
}
