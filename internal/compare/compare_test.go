package compare

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/rulecube"
	"opmap/internal/workload"
)

// noCI disables the interval adjustment so tests can check the raw
// Eq. 1–3 arithmetic exactly.
var noCI = Options{DisableCI: true}

// TestMeasureBoundaryMin reproduces Fig. 2(A)/Fig. 4(A): when the bad
// phone's drop rate is exactly ratio× the good phone's for every value,
// the attribute is expected and M must be 0.
func TestMeasureBoundaryMin(t *testing.T) {
	// Good phone: 2% drops everywhere; bad phone: 4% everywhere.
	// 10000 calls per time-of-day per phone.
	n1 := []int64{10000, 10000, 10000}
	c1 := []int64{200, 200, 200} // 2%
	n2 := []int64{10000, 10000, 10000}
	c2 := []int64{400, 400, 400} // 4%
	score, res, err := CompareValues("Time-of-Call", []string{"morning", "afternoon", "evening"}, n1, c1, n2, c2, noCI)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio != 2 {
		t.Fatalf("ratio = %v, want 2", res.Ratio)
	}
	if score.Score != 0 {
		t.Errorf("proportional situation: M = %v, want 0 (Fig. 4(A))", score.Score)
	}
	for _, d := range details(&res, score) {
		if d.F > 1e-12 {
			t.Errorf("value %s has positive F = %v in the expected situation", d.Label, d.F)
		}
	}
}

// TestMeasureBoundaryMax reproduces Fig. 4(B): all of D2's drops in one
// value at 100% confidence where D1 is lowest — the maximal M.
func TestMeasureBoundaryMax(t *testing.T) {
	// D1 (ph1): 2% overall, evening lowest (1%).
	n1 := []int64{10000, 10000, 10000}
	c1 := []int64{250, 250, 100}
	// D2 (ph2): 4% overall = 1200 drops out of 30000, ALL in the evening
	// with 100% drop rate there (evening has exactly 1200 calls).
	n2 := []int64{14400, 14400, 1200}
	c2 := []int64{0, 0, 1200}
	score, res, err := CompareValues("Time-of-Call", []string{"morning", "afternoon", "evening"}, n1, c1, n2, c2, noCI)
	if err != nil {
		t.Fatal(err)
	}
	// Hand computation: cf2 = 1200/30000 = 0.04, cf1 = 600/30000 = 0.02,
	// ratio 2. Evening: cf2k = 1, cf1k = 0.01 ⇒ F = 1 − 0.02 = 0.98,
	// W = 0.98·1200 = 1176. Morning/afternoon: cf2k = 0 ⇒ F < 0 ⇒ 0.
	if math.Abs(res.Cf2-0.04) > 1e-12 || math.Abs(res.Cf1-0.02) > 1e-12 {
		t.Fatalf("cf1=%v cf2=%v", res.Cf1, res.Cf2)
	}
	want := (1 - 0.01*2) * 1200
	if math.Abs(score.Score-want) > 1e-9 {
		t.Errorf("M = %v, want %v", score.Score, want)
	}
	// This is the maximum over any redistribution: compare with a spread
	// configuration of the same totals.
	n2b := []int64{10000, 10000, 10000}
	c2b := []int64{400, 400, 400}
	spread, _, err := CompareValues("Time-of-Call", nil, n1, c1, n2b, c2b, noCI)
	if err != nil {
		t.Fatal(err)
	}
	if spread.Score >= score.Score {
		t.Errorf("concentrated M (%v) should exceed spread M (%v)", score.Score, spread.Score)
	}
}

// TestMeasureFig2BInteresting reproduces Fig. 2(B): same drop rates in
// afternoon/evening, big morning excess → positive M concentrated in the
// morning value.
func TestMeasureFig2B(t *testing.T) {
	n1 := []int64{10000, 10000, 10000}
	c1 := []int64{200, 200, 200} // ph1 flat 2%
	n2 := []int64{10000, 10000, 10000}
	c2 := []int64{800, 200, 200} // ph2: 8% mornings, 2% otherwise
	score, res, err := CompareValues("Time-of-Call", []string{"morning", "afternoon", "evening"}, n1, c1, n2, c2, noCI)
	if err != nil {
		t.Fatal(err)
	}
	if score.Score <= 0 {
		t.Fatalf("M = %v, want positive", score.Score)
	}
	vals := details(&res, score)
	morning := vals[0]
	if morning.W <= 0 {
		t.Error("morning should carry positive contribution")
	}
	for _, d := range vals[1:] {
		if d.W != 0 {
			t.Errorf("%s W = %v, want 0 (cf2k below expectation there)", d.Label, d.W)
		}
	}
	// Expected morning F = 0.08 − 0.02·(cf2/cf1).
	ratio := res.Ratio
	wantF := 0.08 - 0.02*ratio
	if math.Abs(morning.F-wantF) > 1e-12 {
		t.Errorf("morning F = %v, want %v", morning.F, wantF)
	}
}

func TestCompareValuesOrientation(t *testing.T) {
	// Passing the *higher*-confidence population first must auto-swap.
	n1 := []int64{100, 100}
	c1 := []int64{40, 40} // 40%
	n2 := []int64{100, 100}
	c2 := []int64{10, 10} // 10%
	_, res, err := CompareValues("a", nil, n1, c1, n2, c2, noCI)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped {
		t.Error("expected orientation swap")
	}
	if res.Cf1 != 0.10 || res.Cf2 != 0.40 {
		t.Errorf("cf1=%v cf2=%v after swap", res.Cf1, res.Cf2)
	}
}

func TestCompareValuesValidation(t *testing.T) {
	if _, _, err := CompareValues("a", nil, []int64{1}, []int64{0, 0}, []int64{1}, []int64{0}, noCI); err == nil {
		t.Error("ragged slices should fail")
	}
	if _, _, err := CompareValues("a", nil, []int64{1}, []int64{2}, []int64{1}, []int64{0}, noCI); err == nil {
		t.Error("c > n should fail")
	}
	if _, _, err := CompareValues("a", nil, []int64{0}, []int64{0}, []int64{1}, []int64{1}, noCI); err == nil {
		t.Error("empty sub-population should fail")
	}
	// Zero confidence on the lower side makes the ratio undefined.
	if _, _, err := CompareValues("a", nil, []int64{100}, []int64{0}, []int64{100}, []int64{10}, noCI); err == nil {
		t.Error("zero cf1 should fail")
	}
}

// TestCIAdjustmentSuppressesNoise: with tiny counts, a large raw
// confidence gap should be suppressed by the CI revision (Section IV.B's
// whole purpose).
func TestCIAdjustmentSuppressesNoise(t *testing.T) {
	// Value with 5 records in each population: 0/5 vs 2/5 looks like a
	// dramatic gap but is statistically meaningless.
	n1 := []int64{5, 10000}
	c1 := []int64{0, 200}
	n2 := []int64{5, 10000}
	c2 := []int64{2, 405}
	raw, rawRes, err := CompareValues("a", nil, n1, c1, n2, c2, noCI)
	if err != nil {
		t.Fatal(err)
	}
	adjusted, adjRes, err := CompareValues("a", nil, n1, c1, n2, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rawSmall := rawRes.Detail(raw, 0).W
	adjSmall := adjRes.Detail(adjusted, 0).W
	if adjSmall >= rawSmall {
		t.Errorf("CI adjustment did not shrink the noisy value's contribution: raw=%v adj=%v", rawSmall, adjSmall)
	}
	if adjSmall != 0 {
		t.Errorf("n=5 value should be fully suppressed at the 0.95 level, got W=%v", adjSmall)
	}
}

func TestCIRevisedConfidencesMatchFormula(t *testing.T) {
	n1 := []int64{400, 600}
	c1 := []int64{40, 60}
	n2 := []int64{500, 500}
	c2 := []int64{100, 50}
	score, res, err := CompareValues("a", nil, n1, c1, n2, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	z := 1.96
	for _, d := range details(&res, score) {
		e1 := z * math.Sqrt(d.Cf1*(1-d.Cf1)/float64(d.N1))
		e2 := z * math.Sqrt(d.Cf2*(1-d.Cf2)/float64(d.N2))
		if math.Abs(d.E1-e1) > 1e-12 || math.Abs(d.E2-e2) > 1e-12 {
			t.Errorf("%s: margins (%v,%v), want (%v,%v)", d.Label, d.E1, d.E2, e1, e2)
		}
		if math.Abs(d.RCf1-math.Min(1, d.Cf1+e1)) > 1e-12 {
			t.Errorf("rcf1 wrong for %s", d.Label)
		}
		if math.Abs(d.RCf2-math.Max(0, d.Cf2-e2)) > 1e-12 {
			t.Errorf("rcf2 wrong for %s", d.Label)
		}
	}
}

func TestWilsonOptionDiffers(t *testing.T) {
	n1 := []int64{50, 60}
	c1 := []int64{5, 6}
	n2 := []int64{50, 60}
	c2 := []int64{20, 6}
	wald, waldRes, err := CompareValues("a", nil, n1, c1, n2, c2, Options{Method: Wald})
	if err != nil {
		t.Fatal(err)
	}
	wilson, wilsonRes, err := CompareValues("a", nil, n1, c1, n2, c2, Options{Method: Wilson})
	if err != nil {
		t.Fatal(err)
	}
	if waldRes.Detail(wald, 0).E1 == wilsonRes.Detail(wilson, 0).E1 {
		t.Error("Wilson and Wald margins should differ on small samples")
	}
}

// Property attribute detection (Section IV.C).
func TestPropertyAttributeDetection(t *testing.T) {
	// Two values, each exclusive to one sub-population: P=2, T=0,
	// ratio 1 > 0.9 → property.
	n1 := []int64{100, 0}
	c1 := []int64{5, 0}
	n2 := []int64{0, 100}
	c2 := []int64{0, 20}
	score, _, err := CompareValues("Phone-Hardware-Version", nil, n1, c1, n2, c2, noCI)
	if err != nil {
		t.Fatal(err)
	}
	if !score.Property {
		t.Error("exclusive-value attribute must be a property attribute")
	}
	if score.PropertyRatio != 1 {
		t.Errorf("ratio = %v, want 1", score.PropertyRatio)
	}
}

func TestPropertyThresholdBoundary(t *testing.T) {
	// 9 exclusive values + 1 shared: ratio 0.9, NOT > 0.9 ⇒ not property.
	n1 := make([]int64, 10)
	c1 := make([]int64, 10)
	n2 := make([]int64, 10)
	c2 := make([]int64, 10)
	for i := 0; i < 9; i++ {
		if i%2 == 0 {
			n1[i] = 50
			c1[i] = 1
		} else {
			n2[i] = 50
			c2[i] = 5
		}
	}
	n1[9], c1[9] = 1000, 20
	n2[9], c2[9] = 1000, 40
	score, _, err := CompareValues("edge", nil, n1, c1, n2, c2, noCI)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(score.PropertyRatio-0.9) > 1e-12 {
		t.Fatalf("ratio = %v, want exactly 0.9", score.PropertyRatio)
	}
	if score.Property {
		t.Error("ratio exactly at the threshold must NOT be a property attribute (strict >)")
	}
	// With a lower threshold it becomes one.
	score2, _, err := CompareValues("edge", nil, n1, c1, n2, c2, Options{DisableCI: true, PropertyThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !score2.Property {
		t.Error("threshold 0.5 should classify ratio 0.9 as property")
	}
}

func TestBothZeroValuesIgnored(t *testing.T) {
	// A value absent from both populations contributes to neither P nor T.
	n1 := []int64{100, 0, 100}
	c1 := []int64{2, 0, 2}
	n2 := []int64{100, 0, 100}
	c2 := []int64{8, 0, 8}
	score, _, err := CompareValues("a", nil, n1, c1, n2, c2, noCI)
	if err != nil {
		t.Fatal(err)
	}
	if len(score.Values) != 2 {
		t.Errorf("got %d value details, want 2 (both-zero value dropped)", len(score.Values))
	}
	if score.Property {
		t.Error("attribute with all shared values must not be property")
	}
}

// buildCaseStudy builds the planted call log and pins its cube store.
func buildCaseStudy(t testing.TB, records, noise int) (*engine.LazySource, workload.GroundTruth, *dataset.Dataset) {
	t.Helper()
	ds, gt, err := workload.CallLog(workload.CallLogConfig{
		Seed:       42,
		Records:    records,
		NumPhones:  6,
		NoiseAttrs: noise,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := pinAll(t, ds)
	return store, gt, ds
}

// pinAll counts every 1-D and pair cube of ds and pins them into an
// engine, as an eager session serves them.
func pinAll(t testing.TB, ds *dataset.Dataset) *engine.LazySource {
	t.Helper()
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.PinAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return src
}

// cube1 returns src's 1-D cube of attribute a.
func cube1(t testing.TB, src *engine.LazySource, a int) *rulecube.Cube {
	t.Helper()
	c, err := src.CubeN(context.Background(), []int{a})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func inputFor(t testing.TB, ds *dataset.Dataset, gt workload.GroundTruth) Input {
	t.Helper()
	attr := ds.AttrIndex(gt.PhoneAttr)
	v1, ok1 := ds.Column(attr).Dict.Lookup(gt.GoodPhone)
	v2, ok2 := ds.Column(attr).Dict.Lookup(gt.BadPhone)
	cls, ok3 := ds.ClassDict().Lookup(gt.DropClass)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("ground truth labels missing from dataset")
	}
	return Input{Attr: attr, V1: v1, V2: v2, Class: cls}
}

// TestCaseStudyRecoversPlantedAttribute is the Fig. 7 check: the planted
// distinguishing attribute must rank #1, the proportional attribute must
// not be near the top, and the property attribute must be set aside.
func TestCaseStudyRecoversPlantedAttribute(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 60000, 10)
	res, err := NewSource(store).Compare(inputFor(t, ds, gt), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) == 0 {
		t.Fatal("no ranked attributes")
	}
	if res.Ranked[0].Name != gt.DistinguishingAttr {
		t.Errorf("top attribute = %q, want %q", res.Ranked[0].Name, gt.DistinguishingAttr)
	}
	// Secondary planted attribute should outrank all noise attributes.
	_, secRank, ok := res.Find(gt.SecondaryAttr)
	if !ok {
		t.Fatalf("secondary attribute missing")
	}
	for _, noise := range gt.NoiseAttrs {
		_, nRank, ok := res.Find(noise)
		if !ok {
			continue
		}
		if nRank != 0 && nRank < secRank {
			t.Errorf("noise %q (rank %d) outranks planted secondary %q (rank %d)", noise, nRank, gt.SecondaryAttr, secRank)
		}
	}
	// Property attribute must be in the property list, not the ranking.
	found := false
	for _, p := range res.Property {
		if p.Name == gt.PropertyAttr {
			found = true
		}
	}
	if !found {
		t.Errorf("planted property attribute %q not detected", gt.PropertyAttr)
	}
	for _, r := range res.Ranked {
		if r.Name == gt.PropertyAttr {
			t.Errorf("property attribute %q leaked into the main ranking", gt.PropertyAttr)
		}
	}
}

// TestProportionalAttributeScoresLow: Fig. 2(A)'s planted proportional
// attribute must score well below the distinguishing attribute.
func TestProportionalAttributeScoresLow(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 60000, 0)
	res, err := NewSource(store).Compare(inputFor(t, ds, gt), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dist, _, _ := res.Find(gt.DistinguishingAttr)
	prop, _, ok := res.Find(gt.ProportionalAttr)
	if !ok {
		t.Fatal("proportional attribute missing")
	}
	if prop.Score > dist.Score/3 {
		t.Errorf("proportional attribute M=%v too close to distinguishing M=%v", prop.Score, dist.Score)
	}
}

// TestCubeAndScanAgree: the cube-backed and raw-scan paths must produce
// identical rankings and scores.
func TestCubeAndScanAgree(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 20000, 5)
	in := inputFor(t, ds, gt)
	a, err := NewSource(store).Compare(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scan(context.Background(), ds, nil, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ranked) != len(b.Ranked) || len(a.Property) != len(b.Property) {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)", len(a.Ranked), len(a.Property), len(b.Ranked), len(b.Property))
	}
	for i := range a.Ranked {
		if a.Ranked[i].Name != b.Ranked[i].Name {
			t.Fatalf("rank %d: %q vs %q", i, a.Ranked[i].Name, b.Ranked[i].Name)
		}
		if math.Abs(a.Ranked[i].Score-b.Ranked[i].Score) > 1e-9 {
			t.Fatalf("score mismatch for %q: %v vs %v", a.Ranked[i].Name, a.Ranked[i].Score, b.Ranked[i].Score)
		}
	}
	t.Run("missing classes", cubeAndScanAgreeMissingClass)
}

// missingClassTable is a 60-row table (phone, time, region, class)
// whose class is missing on 20 rows, 10 per phone: the cube path
// skips them, so a scan must too.
func missingClassTable(t *testing.T) *dataset.Dataset {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "Phone", Kind: dataset.Categorical},
			{Name: "Time", Kind: dataset.Categorical},
			{Name: "Region", Kind: dataset.Categorical},
			{Name: "Disposition", Kind: dataset.Categorical},
		},
		ClassIndex: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		phone := []string{"p1", "p2"}[i%2]
		tm := []string{"am", "pm", "eve"}[(i/2)%3]
		class := "ok"
		switch {
		case i%3 == 0:
			class = dataset.MissingLabel
		case i%4 == 2 || i%5 == 1 || (phone == "p2" && tm == "am"):
			class = "drop"
		}
		if err := b.AddRow([]string{phone, tm, []string{"n", "s"}[(i/6)%2], class}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// cubeAndScanAgreeMissingClass: with missing classes in the data, the
// scan path must count the same rule and per-value counts as the cube
// path, which skips rows without a class.
func cubeAndScanAgreeMissingClass(t *testing.T) {
	ds := missingClassTable(t)
	store := pinAll(t, ds)
	drop, _ := ds.ClassDict().Lookup("drop")
	in := Input{Attr: 0, V1: 0, V2: 1, Class: drop}
	a, err := NewSource(store).Compare(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scan(context.Background(), ds, nil, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rule1.CondCount != 20 {
		t.Fatalf("cube path |D1| = %d, want the 20 rows with a class", a.Rule1.CondCount)
	}
	if !reflect.DeepEqual(a.Rule1, b.Rule1) || !reflect.DeepEqual(a.Rule2, b.Rule2) {
		t.Errorf("input rules differ: cube %+v / %+v, scan %+v / %+v", a.Rule1, a.Rule2, b.Rule1, b.Rule2)
	}
	if len(a.Ranked)+len(a.Property) != 2 || len(a.Ranked) != len(b.Ranked) || len(a.Property) != len(b.Property) {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)", len(a.Ranked), len(a.Property), len(b.Ranked), len(b.Property))
	}
	for i := range a.Ranked {
		if a.Ranked[i].Name != b.Ranked[i].Name || !reflect.DeepEqual(a.Ranked[i].Values, b.Ranked[i].Values) {
			t.Errorf("rank %d: cube %q %+v, scan %q %+v", i, a.Ranked[i].Name, a.Ranked[i].Values, b.Ranked[i].Name, b.Ranked[i].Values)
		}
	}
}

func TestCompareInputValidation(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 2000, 0)
	in := inputFor(t, ds, gt)
	c := NewSource(store)

	bad := in
	bad.V1 = bad.V2
	if _, err := c.Compare(bad, Options{}); err == nil {
		t.Error("same values should fail")
	}
	bad = in
	bad.Attr = ds.ClassIndex()
	if _, err := c.Compare(bad, Options{}); err == nil {
		t.Error("class as comparison attribute should fail")
	}
	bad = in
	bad.Class = 99
	if _, err := c.Compare(bad, Options{}); err == nil {
		t.Error("bad class should fail")
	}
	bad = in
	bad.V2 = 99
	if _, err := c.Compare(bad, Options{}); err == nil {
		t.Error("bad value should fail")
	}
	if _, err := c.Compare(in, Options{MinRuleSupport: 1 << 40}); err == nil {
		t.Error("MinRuleSupport should reject small sub-populations")
	}
	if _, err := c.Compare(in, Options{Attrs: []int{in.Attr}}); err == nil {
		t.Error("comparison attribute in Attrs should fail")
	}
}

func TestCompareAttrSubset(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 20000, 3)
	in := inputFor(t, ds, gt)
	sub := []int{ds.AttrIndex(gt.DistinguishingAttr), ds.AttrIndex(gt.ProportionalAttr)}
	res, err := NewSource(store).Compare(in, Options{Attrs: sub})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked)+len(res.Property) != 2 {
		t.Errorf("got %d attributes, want 2", len(res.Ranked)+len(res.Property))
	}
}

func TestResultHelpers(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 20000, 3)
	res, err := NewSource(store).Compare(inputFor(t, ds, gt), Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := res.Top(2)
	if len(top) != 2 {
		t.Fatalf("Top(2) returned %d", len(top))
	}
	if top[0].Score < top[1].Score {
		t.Error("Top not sorted")
	}
	if res.Top(1000); len(res.Top(1000)) != len(res.Ranked) {
		t.Error("Top should clamp")
	}
	if got := res.Top(-1); len(got) != 0 {
		t.Errorf("Top(-1) returned %d entries, want none", len(got))
	}
	if _, _, ok := res.Find("no-such-attr"); ok {
		t.Error("Find should miss unknown attributes")
	}
	s, rank, ok := res.Find(gt.DistinguishingAttr)
	if !ok || rank < 1 || s.Name != gt.DistinguishingAttr {
		t.Error("Find broken for ranked attribute")
	}
	_, prank, ok := res.Find(gt.PropertyAttr)
	if !ok || prank != 0 {
		t.Error("property attributes should report rank 0")
	}
}

func TestNormScoreBounded(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 30000, 5)
	res, err := NewSource(store).Compare(inputFor(t, ds, gt), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Ranked {
		if s.NormScore < 0 {
			t.Errorf("%s NormScore = %v < 0", s.Name, s.NormScore)
		}
		// NormScore is M/(cf2·|D2|); since W_k ≤ F_k·N_2k ≤ 1·N_2k and
		// Σ N_2k = |D2|, NormScore ≤ 1/cf2. For our 4% rates that's 25,
		// but in practice it should stay small; just sanity-bound it.
		if s.NormScore > 1/res.Cf2+1e-9 {
			t.Errorf("%s NormScore = %v exceeds theoretical bound", s.Name, s.NormScore)
		}
	}
}

func TestScanRejectsContinuous(t *testing.T) {
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 1,
	})
	b.AddRow([]string{"1", "y"})
	ds, _ := b.Build()
	if _, err := Scan(context.Background(), ds, nil, Input{}, Options{}); err == nil {
		t.Error("continuous dataset should be rejected")
	}
}

func TestIntervalMethodString(t *testing.T) {
	if Wald.String() != "wald" || Wilson.String() != "wilson" {
		t.Error("IntervalMethod.String broken")
	}
	if IntervalMethod(9).String() == "" {
		t.Error("unknown method should render")
	}
}

// TestCompareWithMissingValues: the pipeline must survive gappy noise
// attributes (rows with missing values are excluded from the affected
// cubes) and still recover the planted attribute.
func TestCompareWithMissingValues(t *testing.T) {
	ds, gt, err := workload.CallLog(workload.CallLogConfig{
		Seed: 12, Records: 40000, NoiseAttrs: 4, MissingRate: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := pinAll(t, ds)
	res, err := NewSource(store).Compare(inputFor(t, ds, gt), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranked[0].Name != gt.DistinguishingAttr {
		t.Errorf("with missing values, top = %q", res.Ranked[0].Name)
	}
}

// TestCompareSingleValuedCandidate: a candidate attribute with one value
// carries no distinguishing power — M must be 0 and it must not be a
// property attribute (the value occurs in both sub-populations).
func TestCompareSingleValuedCandidate(t *testing.T) {
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "phone", Kind: dataset.Categorical},
			{Name: "constant", Kind: dataset.Categorical},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.WithDict(0, dataset.DictionaryOf("p1", "p2"))
	b.WithDict(1, dataset.DictionaryOf("only"))
	b.WithDict(2, dataset.DictionaryOf("ok", "bad"))
	emit := func(p int32, bad bool, n int) {
		cls := int32(0)
		if bad {
			cls = 1
		}
		for i := 0; i < n; i++ {
			b.AddCodedRow([]int32{p, 0, cls}, nil)
		}
	}
	emit(0, true, 20)
	emit(0, false, 980)
	emit(1, true, 40)
	emit(1, false, 960)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	store := pinAll(t, ds)
	res, err := NewSource(store).Compare(Input{Attr: 0, V1: 0, V2: 1, Class: 1}, Options{DisableCI: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != 1 {
		t.Fatalf("ranked = %d", len(res.Ranked))
	}
	s := res.Ranked[0]
	if s.Score != 0 {
		t.Errorf("single-valued candidate M = %v, want 0", s.Score)
	}
	if s.Property {
		t.Error("shared single value must not be a property attribute")
	}
}

// TestCompareEqualConfidences: cf1 == cf2 yields ratio 1; the measure
// reduces to counting where D2 beats D1 — still well defined.
func TestCompareEqualConfidences(t *testing.T) {
	n1 := []int64{1000, 1000}
	c1 := []int64{30, 10} // 2% overall
	n2 := []int64{1000, 1000}
	c2 := []int64{10, 30} // 2% overall
	score, res, err := CompareValues("a", nil, n1, c1, n2, c2, noCI)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio != 1 {
		t.Fatalf("ratio = %v", res.Ratio)
	}
	// Value 1: cf2k 3% vs expected cf1k·1 = 1% → F=0.02, W=20.
	if math.Abs(score.Score-20) > 1e-9 {
		t.Errorf("M = %v, want 20", score.Score)
	}
}

// TestConcurrentComparisons backs the documented claim that read-only
// queries may run concurrently once the store is built. Run under
// -race in CI.
func TestConcurrentComparisons(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 20000, 3)
	in := inputFor(t, ds, gt)
	c := NewSource(store)
	want, err := c.Compare(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := c.Compare(in, Options{})
				if err != nil {
					errs <- err
					return
				}
				if res.Ranked[0].Name != want.Ranked[0].Name {
					errs <- fmt.Errorf("concurrent result diverged")
					return
				}
				if _, err := c.ScreenPairs(in.Attr, in.Class, ScreenOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
