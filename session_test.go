package opmap

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"opmap/internal/compare"
)

// caseStudySession builds (once per test binary) a moderately sized
// call-log session with cubes, shared by the API tests.
func caseStudySession(t testing.TB) (*Session, CallLogTruth) {
	t.Helper()
	s, gt, err := GenerateCallLog(CallLogConfig{Seed: 77, Records: 30000, NumPhones: 6, NoiseAttrs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Discretize(DiscretizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	return s, gt
}

func TestSessionBasics(t *testing.T) {
	s, gt := caseStudySession(t)
	if s.NumRows() != 30000 {
		t.Errorf("rows = %d", s.NumRows())
	}
	if s.ClassAttribute() != "Disposition" {
		t.Errorf("class attr = %q", s.ClassAttribute())
	}
	classes := s.Classes()
	if len(classes) != 3 {
		t.Errorf("classes = %v", classes)
	}
	attrs := s.Attributes()
	if len(attrs) != 10 { // 5 planted + 4 noise + class
		t.Errorf("attrs = %d: %v", len(attrs), attrs)
	}
	vals, err := s.Values(gt.PhoneAttr)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 6 {
		t.Errorf("phone values = %v", vals)
	}
	if _, err := s.Values("nope"); err == nil {
		t.Error("unknown attribute should fail")
	}
	dist := s.ClassDistribution()
	var total int64
	for _, n := range dist {
		total += n
	}
	if total != 30000 {
		t.Errorf("class distribution sums to %d", total)
	}
	// 9 attrs → 9 + 36 cubes.
	if s.CubeCount() != 45 {
		t.Errorf("CubeCount = %d, want 45", s.CubeCount())
	}
	if s.RuleSpaceSize() == 0 {
		t.Error("rule space size should be positive")
	}
}

func TestCompareEndToEnd(t *testing.T) {
	s, gt := caseStudySession(t)
	cmp, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Cf1 >= cmp.Cf2 {
		t.Errorf("orientation broken: cf1=%v cf2=%v", cmp.Cf1, cmp.Cf2)
	}
	top := cmp.Top(3)
	if len(top) == 0 || top[0].Name != gt.DistinguishingAttr {
		t.Fatalf("top = %+v, want %q first", top, gt.DistinguishingAttr)
	}
	if rank, ok := cmp.Rank(gt.DistinguishingAttr); !ok || rank != 1 {
		t.Errorf("Rank(%q) = %d,%v", gt.DistinguishingAttr, rank, ok)
	}
	props := cmp.PropertyAttributes()
	foundProp := false
	for _, p := range props {
		if p.Name == gt.PropertyAttr {
			foundProp = true
		}
	}
	if !foundProp {
		t.Errorf("property attribute %q missing from %v", gt.PropertyAttr, props)
	}
	if got := cmp.TopProperty(len(props) + 1); !reflect.DeepEqual(got, props) {
		t.Errorf("TopProperty(%d) = %v, want %v", len(props)+1, got, props)
	}
	if got := cmp.TopProperty(1); len(got) != 1 || got[0] != props[0] {
		t.Errorf("TopProperty(1) = %v, want %v", got, props[:1])
	}
	if cmp.Top(-1) != nil || cmp.TopProperty(-1) != nil {
		t.Error("a negative count should select no attributes")
	}
	// Detail breakdown available.
	breakdown, ok := cmp.Breakdown(gt.DistinguishingAttr)
	if !ok || len(breakdown) != 3 {
		t.Errorf("breakdown = %+v", breakdown)
	}
	if _, ok := cmp.Breakdown("no-such-attr"); ok {
		t.Error("Breakdown of an unranked attribute reported ok")
	}
	if s := cmp.String(); !strings.Contains(s, gt.PhoneAttr) {
		t.Errorf("String() = %q", s)
	}
}

func TestCompareSwappedInputOrientation(t *testing.T) {
	s, gt := caseStudySession(t)
	// Passing (bad, good) must orient identically to (good, bad).
	a, err := s.Compare(gt.PhoneAttr, gt.BadPhone, gt.GoodPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Label1 != b.Label1 || a.Label2 != b.Label2 {
		t.Errorf("orientation differs: (%s,%s) vs (%s,%s)", a.Label1, a.Label2, b.Label1, b.Label2)
	}
	if a.Ranked()[0].Name != b.Ranked()[0].Name {
		t.Error("rankings differ under input order")
	}
}

// scanCompare runs the cube-free reference comparison: compare.Scan
// over the session's working dataset, wrapped as Compare wraps its
// answer.
func scanCompare(s *Session, attr, v1, v2, class string) (*Comparison, error) {
	in, copts, err := s.resolve(attr, v1, v2, class, CompareOptions{})
	if err != nil {
		return nil, err
	}
	res, err := compare.Scan(context.Background(), s.ds, nil, in, copts)
	if err != nil {
		return nil, err
	}
	return s.wrapComparison(attr, class, in, res), nil
}

func TestCompareByScanAgrees(t *testing.T) {
	s, gt := caseStudySession(t)
	a, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := scanCompare(s, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Ranked(), b.Ranked()
	if len(ra) != len(rb) {
		t.Fatal("lengths differ")
	}
	for i := range ra {
		if ra[i].Name != rb[i].Name {
			t.Fatalf("rank %d differs: %s vs %s", i, ra[i].Name, rb[i].Name)
		}
	}

	// A table whose class is missing on 20 of 60 rows: the scan must
	// skip those rows exactly as the cubes do.
	var csv strings.Builder
	csv.WriteString("Phone,Time,Region,Disposition\n")
	for i := 0; i < 60; i++ {
		phone, tm := []string{"p1", "p2"}[i%2], []string{"am", "pm", "eve"}[(i/2)%3]
		class := "ok"
		switch {
		case i%3 == 0:
			class = "?"
		case i%4 == 2 || i%5 == 1 || (phone == "p2" && tm == "am"):
			class = "drop"
		}
		fmt.Fprintf(&csv, "%s,%s,%s,%s\n", phone, tm, []string{"n", "s"}[(i/6)%2], class)
	}
	m, err := LoadCSV(strings.NewReader(csv.String()), LoadOptions{Class: "Disposition"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	a, err = m.Compare("Phone", "p1", "p2", "drop", CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err = scanCompare(m, "Phone", "p1", "p2", "drop")
	if err != nil {
		t.Fatal(err)
	}
	if r1, r2 := a.res.Rule1, b.res.Rule1; r1.CondCount != 20 || !reflect.DeepEqual(r1, r2) {
		t.Errorf("rule 1: cube %+v, scan %+v (want |D1| = 20)", r1, r2)
	}
	if !reflect.DeepEqual(a.res.Rule2, b.res.Rule2) {
		t.Errorf("rule 2: cube %+v, scan %+v", a.res.Rule2, b.res.Rule2)
	}
	ra, rb = a.Ranked(), b.Ranked()
	if len(ra) != len(rb) {
		t.Fatalf("missing-class table: %d vs %d ranked", len(ra), len(rb))
	}
	for i := range ra {
		va, _ := a.Breakdown(ra[i].Name)
		vb, _ := b.Breakdown(rb[i].Name)
		if ra[i].Name != rb[i].Name || !reflect.DeepEqual(va, vb) {
			t.Errorf("missing-class table rank %d: cube %s %+v, scan %s %+v", i, ra[i].Name, va, rb[i].Name, vb)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	s, gt := caseStudySession(t)
	if _, err := s.Compare("nope", "a", "b", gt.DropClass, CompareOptions{}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := s.Compare(gt.PhoneAttr, "nope", gt.BadPhone, gt.DropClass, CompareOptions{}); err == nil {
		t.Error("unknown value should fail")
	}
	if _, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, "nope", CompareOptions{}); err == nil {
		t.Error("unknown class should fail")
	}
	if _, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{Attrs: []string{"nope"}}); err == nil {
		t.Error("unknown restricted attribute should fail")
	}
	// Comparing without cubes.
	s2, _, err := GenerateCallLog(CallLogConfig{Seed: 1, Records: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{}); err == nil {
		t.Error("comparison before BuildCubes should fail")
	}
}

func TestCompareOptionPlumbing(t *testing.T) {
	s, gt := caseStudySession(t)
	base, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noCI, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{DisableCI: true})
	if err != nil {
		t.Fatal(err)
	}
	// CI off yields ≥ scores (raw differences are never smaller than the
	// interval-shrunk ones).
	b0, n0 := base.Ranked()[0], noCI.Ranked()[0]
	if n0.Score < b0.Score {
		t.Errorf("no-CI score %v < CI score %v", n0.Score, b0.Score)
	}
	wilson, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{WilsonIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	if wilson.Ranked()[0].Score == base.Ranked()[0].Score {
		t.Log("wilson equals wald (possible but unlikely); not failing")
	}
	level99, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{ConfidenceLevel: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if level99.Ranked()[0].Score > base.Ranked()[0].Score {
		t.Error("a stricter level must not raise scores")
	}
	restricted, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass,
		CompareOptions{Attrs: []string{gt.DistinguishingAttr}})
	if err != nil {
		t.Fatal(err)
	}
	if len(restricted.Ranked())+len(restricted.PropertyAttributes()) != 1 {
		t.Error("Attrs restriction not honored")
	}
}

func TestRenderingAPIs(t *testing.T) {
	s, gt := caseStudySession(t)
	cmp, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cmp.RenderRanking(&buf, 5)
	if !strings.Contains(buf.String(), gt.DistinguishingAttr) {
		t.Error("ranking render missing top attribute")
	}
	buf.Reset()
	if err := cmp.RenderAttribute(&buf, gt.DistinguishingAttr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "morning") {
		t.Error("attribute render missing values")
	}
	buf.Reset()
	if err := cmp.RenderAttributeSVG(&buf, gt.DistinguishingAttr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<svg") {
		t.Error("SVG render broken")
	}
	if err := cmp.RenderAttribute(&buf, "nope"); err == nil {
		t.Error("unknown attribute render should fail")
	}
	buf.Reset()
	if err := s.RenderOverall(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Overall visualization") {
		t.Error("overall render broken")
	}
	buf.Reset()
	if err := s.RenderDetailed(&buf, gt.PhoneAttr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), gt.GoodPhone) {
		t.Error("detailed render broken")
	}
	buf.Reset()
	if err := s.RenderDetailedSVG(&buf, gt.PhoneAttr); err != nil {
		t.Fatal(err)
	}
	if err := s.RenderDetailed(&buf, "nope"); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestMineRulesAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	rules, err := s.MineRules(MineOptions{MinSupport: 0.01, MinConfidence: 0.5, MaxConditions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules mined")
	}
	for _, r := range rules {
		if r.Confidence < 0.5 {
			t.Fatalf("rule %v below min confidence", r)
		}
		if r.String() == "" {
			t.Fatal("empty rule rendering")
		}
	}
	// Restricted mining.
	fixed, err := s.MineRules(MineOptions{Fixed: map[string]string{gt.PhoneAttr: gt.BadPhone}, MaxConditions: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fixed {
		has := false
		for _, c := range r.Conditions {
			if c.Attr == gt.PhoneAttr && c.Value == gt.BadPhone {
				has = true
			}
		}
		if !has {
			t.Fatalf("rule %v lacks fixed condition", r)
		}
	}
	if _, err := s.MineRules(MineOptions{Fixed: map[string]string{"nope": "x"}}); err == nil {
		t.Error("unknown fixed attribute should fail")
	}
	if _, err := s.MineRules(MineOptions{Fixed: map[string]string{gt.PhoneAttr: "nope"}}); err == nil {
		t.Error("unknown fixed value should fail")
	}
	if _, err := s.MineRules(MineOptions{Attrs: []string{"nope"}}); err == nil {
		t.Error("unknown attrs should fail")
	}
}

func TestRankRulesAPI(t *testing.T) {
	s, _ := caseStudySession(t)
	ranked, err := s.RankRules("lift", MineOptions{MinSupport: 0.01, MaxConditions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no ranked rules")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Value > ranked[i-1].Value+1e-12 {
			t.Fatal("not sorted")
		}
	}
	if _, err := s.RankRules("nope", MineOptions{}); err == nil {
		t.Error("unknown measure should fail")
	}
}

func TestImpressionsAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	imp, err := s.Impressions(ImpressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(imp.Influential) == 0 {
		t.Fatal("no influential attributes")
	}
	// Phone model and time-of-call are the class drivers; they should
	// top the influence ranking ahead of noise.
	top2 := map[string]bool{imp.Influential[0].Attr: true, imp.Influential[1].Attr: true}
	if !top2[gt.PhoneAttr] && !top2[gt.DistinguishingAttr] && !top2[gt.PropertyAttr] {
		t.Errorf("influence top-2 = %v, expected planted attributes", imp.Influential[:2])
	}
}

func TestCubeExceptionsAPI(t *testing.T) {
	s, _ := caseStudySession(t)
	exs, err := s.CubeExceptions(2.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(exs); i++ {
		a, b := exs[i].SelfExp, exs[i-1].SelfExp
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if a > b+1e-12 {
			t.Fatal("exceptions not sorted by |SelfExp|")
		}
	}
}

func TestCompletenessAPI(t *testing.T) {
	s, _ := caseStudySession(t)
	rep, err := s.Completeness(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CARRules <= rep.TreeRules {
		t.Errorf("CAR rules (%d) should far exceed tree rules (%d)", rep.CARRules, rep.TreeRules)
	}
	if rep.TreeAccuracy < 0.9 {
		t.Errorf("tree accuracy = %v", rep.TreeAccuracy)
	}
}

func TestLoadCSVSession(t *testing.T) {
	csv := "Phone,Time,Disposition\nph1,morning,ok\nph1,evening,drop\nph2,morning,drop\nph2,evening,ok\n"
	s, err := LoadCSV(strings.NewReader(csv), LoadOptions{Class: "Disposition"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Discretize(DiscretizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	if s.CubeCount() != 3 {
		t.Errorf("CubeCount = %d", s.CubeCount())
	}
	if _, err := LoadCSV(strings.NewReader("bad"), LoadOptions{}); err == nil {
		t.Log("header-only CSV loads as empty dataset; acceptable")
	}
}

func TestBuildCubesForSubset(t *testing.T) {
	s, gt := caseStudySession(t)
	if err := s.BuildCubesFor([]string{gt.PhoneAttr, gt.DistinguishingAttr}); err != nil {
		t.Fatal(err)
	}
	if s.CubeCount() != 3 {
		t.Errorf("CubeCount = %d, want 3", s.CubeCount())
	}
	if err := s.BuildCubesFor([]string{"nope"}); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestManufacturingPipelineWithDiscretization(t *testing.T) {
	s, truth, err := GenerateManufacturing(5, 30000)
	if err != nil {
		t.Fatal(err)
	}
	// Cubes before discretization must fail helpfully.
	if err := s.BuildCubes(); err == nil {
		t.Fatal("BuildCubes should fail on continuous data")
	}
	if err := s.Discretize(DiscretizeOptions{Method: EqualFrequency, Bins: 4}); err != nil {
		t.Fatal(err)
	}
	cuts := s.Cuts()
	for _, n := range truth.ContinuousAttrs {
		if _, ok := cuts[n]; !ok {
			t.Errorf("no cuts recorded for %q", n)
		}
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	cmp, err := s.Compare(truth.MachineAttr, truth.GoodMachine, truth.BadMachine, truth.DefectClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Ranked()[0].Name != truth.DistinguishingAttr {
		t.Errorf("top attribute = %q, want %q", cmp.Ranked()[0].Name, truth.DistinguishingAttr)
	}
	// The tool revision must be recognized as a property attribute.
	found := false
	for _, p := range cmp.PropertyAttributes() {
		if p.Name == truth.PropertyAttr {
			found = true
		}
	}
	if !found {
		t.Errorf("property attribute %q not detected", truth.PropertyAttr)
	}
}

func TestManualDiscretization(t *testing.T) {
	s, truth, err := GenerateManufacturing(6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Discretize(DiscretizeOptions{
		Method: EqualWidth,
		Bins:   3,
		Manual: map[string][]float64{"Humidity": {70}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hCuts := s.Cuts()["Humidity"]
	if len(hCuts) != 1 || hCuts[0] != 70 {
		t.Errorf("Humidity cuts = %v, want [70]", hCuts)
	}
	// Non-manual attribute used the fallback (3 bins → 2 cuts).
	tCuts := s.Cuts()["Temperature"]
	if len(tCuts) != 2 {
		t.Errorf("Temperature cuts = %v, want 2 cuts", tCuts)
	}
	_ = truth
}

func TestDiscretizeNoOpOnCategorical(t *testing.T) {
	s, _, err := GenerateCallLog(CallLogConfig{Seed: 1, Records: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Discretize(DiscretizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(s.Cuts()) != 0 {
		t.Error("categorical dataset should produce no cuts")
	}
}

func TestCaseStudyFactory(t *testing.T) {
	s, gt, err := CaseStudy(3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Attributes()) != 41 {
		t.Errorf("case study attrs = %d, want 41 (paper Section V.B)", len(s.Attributes()))
	}
	if gt.DistinguishingAttr == "" {
		t.Error("ground truth empty")
	}
}

// breakdowns derives the per-value breakdown of every attribute c
// ranked or set aside, in ranking order.
func breakdowns(t *testing.T, c *Comparison) [][]ValueBreakdown {
	t.Helper()
	var out [][]ValueBreakdown
	for _, s := range append(c.Ranked(), c.PropertyAttributes()...) {
		b, ok := c.Breakdown(s.Name)
		if !ok {
			t.Fatalf("no breakdown for ranked attribute %q", s.Name)
		}
		out = append(out, b)
	}
	return out
}

// TestSchemaReadsRaceDownsample reads Attributes and ClassAttribute
// while DownsampleMajority replaces the dataset they read: under -race
// an unlocked read is reported.
func TestSchemaReadsRaceDownsample(t *testing.T) {
	s := loadIngestSession(t, ingestRows(400), false)
	want := strings.Join(s.Attributes(), ",")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := s.DownsampleMajority(0.95, int64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if got := strings.Join(s.Attributes(), ","); got != want {
			t.Fatalf("Attributes = %s, want %s", got, want)
		}
		if got := s.ClassAttribute(); got != "Outcome" {
			t.Fatalf("ClassAttribute = %s, want Outcome", got)
		}
	}
}
