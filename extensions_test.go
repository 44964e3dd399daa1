package opmap

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestScreenPairsAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	pairs, err := s.ScreenPairs(gt.PhoneAttr, gt.DropClass, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 || len(pairs) > 3 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	top := pairs[0]
	if top.Value1 != gt.GoodPhone && top.Value2 != gt.BadPhone &&
		top.Value1 != gt.BadPhone && top.Value2 != gt.GoodPhone {
		// The most significant pair must involve the bad phone at least.
		if top.Value2 != gt.BadPhone {
			t.Errorf("top pair (%s,%s) does not involve the planted bad phone", top.Value1, top.Value2)
		}
	}
	if top.Cf1 >= top.Cf2 {
		t.Error("pair not oriented")
	}
	// The workflow: screen → compare.
	cmp, err := s.Compare(gt.PhoneAttr, top.Value1, top.Value2, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Top(1)[0].Name != gt.DistinguishingAttr {
		t.Errorf("screen→compare top = %q", cmp.Top(1)[0].Name)
	}
	if _, err := s.ScreenPairs("nope", gt.DropClass, 0); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := s.ScreenPairs(gt.PhoneAttr, "nope", 0); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestCompareOneVsRestAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	cmp, err := s.CompareOneVsRest(gt.DistinguishingAttr, "morning", gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Morning is the worse side → labels oriented with rest first.
	if cmp.Label1 != "rest" || cmp.Label2 != "morning" {
		t.Errorf("labels (%q,%q), want (rest,morning)", cmp.Label1, cmp.Label2)
	}
	if cmp.Cf1 >= cmp.Cf2 {
		t.Error("orientation broken")
	}
	// The phone model (or its hardware proxy) explains the morning gap.
	names := []string{}
	for _, sc := range cmp.Top(2) {
		names = append(names, sc.Name)
	}
	found := false
	for _, n := range names {
		if n == gt.PhoneAttr || n == gt.PropertyAttr {
			found = true
		}
	}
	if !found {
		t.Errorf("top attributes %v do not include the phone model", names)
	}
	if _, err := s.CompareOneVsRest("nope", "x", gt.DropClass, CompareOptions{}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := s.CompareOneVsRest(gt.DistinguishingAttr, "nope", gt.DropClass, CompareOptions{}); err == nil {
		t.Error("unknown value should fail")
	}
	if _, err := s.CompareOneVsRest(gt.DistinguishingAttr, "morning", "nope", CompareOptions{}); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestCubePersistenceAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	path := filepath.Join(t.TempDir(), "cubes.omapsnap")
	if err := s.SaveSnapshotFile(path, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	reopened, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.CubeCount() != s.CubeCount() {
		t.Errorf("cube count %d != %d", reopened.CubeCount(), s.CubeCount())
	}
	// Comparisons from the reloaded store match the original.
	a, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := reopened.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Ranked(), b.Ranked()
	if len(ra) != len(rb) {
		t.Fatal("ranking sizes differ")
	}
	for i := range ra {
		if ra[i].Name != rb[i].Name || ra[i].Score != rb[i].Score {
			t.Fatalf("rank %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	if !reflect.DeepEqual(breakdowns(t, a), breakdowns(t, b)) {
		t.Error("per-value breakdowns differ after reload")
	}
	// Raw-data operations answer from the reloaded rows.
	want, err := s.MineRules(MineOptions{MaxConditions: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.MineRules(MineOptions{MaxConditions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("MineRules on the reloaded session differs from the original")
	}
	// In-memory round trip.
	var buf bytes.Buffer
	if err := s.SaveSnapshot(&buf, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Saving before cubes exist fails.
	fresh, _, err := GenerateCallLog(CallLogConfig{Seed: 1, Records: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SaveSnapshot(&bytes.Buffer{}, SnapshotOptions{}); err == nil {
		t.Error("SaveSnapshot without BuildCubes should fail")
	}
}

func TestCompareWhereAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	overall, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	within, err := s.CompareWhere(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass,
		map[string]string{gt.DistinguishingAttr: "morning"}, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if within.Cf2 <= overall.Cf2 {
		t.Errorf("morning-only bad-phone rate %.4f should exceed overall %.4f", within.Cf2, overall.Cf2)
	}
	if _, ok := within.Attribute(gt.DistinguishingAttr); ok {
		t.Error("fixed attribute should not be ranked")
	}
	if _, err := s.CompareWhere(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass,
		map[string]string{"nope": "x"}, CompareOptions{}); err == nil {
		t.Error("unknown where attribute should fail")
	}
	if _, err := s.CompareWhere(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass,
		map[string]string{gt.DistinguishingAttr: "nope"}, CompareOptions{}); err == nil {
		t.Error("unknown where value should fail")
	}
}

func TestChiMergeDiscretizeMethod(t *testing.T) {
	s, truth, err := GenerateManufacturing(11, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Discretize(DiscretizeOptions{Method: ChiMerge, Bins: 6}); err != nil {
		t.Fatal(err)
	}
	for _, n := range truth.ContinuousAttrs {
		cuts := s.Cuts()[n]
		if len(cuts) > 5 {
			t.Errorf("%s: ChiMerge with cap 6 produced %d cuts", n, len(cuts))
		}
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	cmp, err := s.Compare(truth.MachineAttr, truth.GoodMachine, truth.BadMachine, truth.DefectClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Top(1)[0].Name != truth.DistinguishingAttr {
		t.Errorf("ChiMerge pipeline top = %q", cmp.Top(1)[0].Name)
	}
}

func TestExploreScriptAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	var buf bytes.Buffer
	script := strings.Join([]string{
		"compare " + gt.PhoneAttr + " " + gt.GoodPhone + " " + gt.BadPhone + " " + gt.DropClass,
		"focus",
		"quit",
	}, "\n")
	if err := s.ExploreScript(script, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), gt.DistinguishingAttr) {
		t.Error("exploration transcript missing the planted attribute")
	}
	fresh, _, err := GenerateCallLog(CallLogConfig{Seed: 1, Records: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ExploreScript("quit", &buf); err == nil {
		t.Error("exploring without cubes should fail")
	}
}

func TestDescribeAndDownsampleAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	var buf bytes.Buffer
	if err := s.Describe(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), gt.PhoneAttr) || !strings.Contains(buf.String(), "majority share") {
		t.Error("describe output incomplete")
	}
	before := s.NumRows()
	if err := s.DownsampleMajority(0.2, 1); err != nil {
		t.Fatal(err)
	}
	if s.NumRows() >= before {
		t.Error("downsampling did not shrink the data")
	}
	// Cubes were invalidated; rebuild and the planted signal survives.
	if s.CubeCount() != 0 {
		t.Error("cubes should be invalidated by sampling")
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	cmp, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Top(1)[0].Name != gt.DistinguishingAttr {
		t.Errorf("after downsampling, top = %q", cmp.Top(1)[0].Name)
	}
	if err := s.DownsampleMajority(0, 1); err == nil {
		t.Error("zero fraction should fail")
	}
}

func TestRenderPropertyAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	cmp, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cmp.RenderProperty(&buf, gt.PropertyAttr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 count") {
		t.Error("property render missing zero-count marker")
	}
	if err := cmp.RenderProperty(&buf, "nope"); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestWriteReportAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	cmp, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = s.WriteReport(&buf, cmp, ReportOptions{
		TopN:               3,
		Timestamp:          time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC),
		IncludeImpressions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Comparison report",
		gt.DistinguishingAttr,
		gt.PropertyAttr,
		"general impressions",
		"2026-07-05",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRenderDetailed3DAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	var buf bytes.Buffer
	if err := s.RenderDetailed3D(&buf, gt.PhoneAttr, gt.DistinguishingAttr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), gt.GoodPhone) {
		t.Error("3-D render missing values")
	}
	if err := s.RenderDetailed3D(&buf, "nope", gt.DistinguishingAttr); err != nil {
		if !strings.Contains(err.Error(), "unknown attribute") {
			t.Errorf("unexpected error: %v", err)
		}
	} else {
		t.Error("unknown attribute should fail")
	}
}

func TestSignificanceAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	sig, err := s.TestSignificance(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass,
		gt.DistinguishingAttr, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sig.PValue > 0.1 {
		t.Errorf("planted attribute p = %v", sig.PValue)
	}
	if sig.Attr != gt.DistinguishingAttr || sig.Rounds == 0 {
		t.Errorf("result = %+v", sig)
	}
	if _, err := s.TestSignificance(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, "nope", 10, 1); err == nil {
		t.Error("unknown candidate should fail")
	}
}

func TestSweepAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	res, err := s.Sweep(gt.PhoneAttr, gt.DropClass, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsCompared == 0 || len(res.Attributes) == 0 {
		t.Fatalf("sweep result empty: %+v", res)
	}
	if res.Attributes[0].Name != gt.DistinguishingAttr {
		t.Errorf("sweep top = %q", res.Attributes[0].Name)
	}
	if _, err := s.Sweep("nope", gt.DropClass, 0); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := s.Sweep(gt.PhoneAttr, "nope", 0); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestRenderOverallSVGAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	var buf bytes.Buffer
	if err := s.RenderOverallSVG(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<svg") {
		t.Error("not an SVG")
	}
	if !strings.Contains(buf.String(), gt.PhoneAttr) {
		t.Error("overall SVG missing attributes")
	}
}

func TestWriteSweepReportAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	var buf bytes.Buffer
	if err := s.WriteSweepReport(&buf, gt.PhoneAttr, gt.DropClass, 3, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Sweep report") || !strings.Contains(out, gt.DistinguishingAttr) {
		t.Error("sweep report incomplete")
	}
	if err := s.WriteSweepReport(&buf, "nope", gt.DropClass, 0, ReportOptions{}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if err := s.WriteSweepReport(&buf, gt.PhoneAttr, "nope", 0, ReportOptions{}); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestQueryRulesAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	rules, err := s.QueryRules("class="+gt.DropClass+" and "+gt.PhoneAttr+"="+gt.BadPhone+" and conf >= 0.03",
		MineOptions{MaxConditions: 2, MinSupport: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules matched the planted pattern")
	}
	for _, r := range rules {
		if r.Class != gt.DropClass || r.Confidence < 0.03 {
			t.Fatalf("rule %v violates the query", r)
		}
	}
	if _, err := s.QueryRules("bogus ~ clause", MineOptions{}); err == nil {
		t.Error("bad query should fail")
	}
}

func TestConditionalTrendsAPI(t *testing.T) {
	s, gt := caseStudySession(t)
	// Both argument orders must work (the store stores one canonical
	// order; the other path slices manually).
	for _, pair := range [][2]string{
		{gt.PhoneAttr, gt.DistinguishingAttr},
		{gt.DistinguishingAttr, gt.PhoneAttr},
	} {
		cts, err := s.ConditionalTrends(pair[0], pair[1])
		if err != nil {
			t.Fatalf("(%s,%s): %v", pair[0], pair[1], err)
		}
		for _, ct := range cts {
			if ct.OrdAttr != pair[1] {
				t.Fatalf("(%s,%s): trend over %q", pair[0], pair[1], ct.OrdAttr)
			}
			if ct.Kind == "" || ct.GroupValue == "" {
				t.Fatalf("incomplete trend %+v", ct)
			}
		}
	}
	if _, err := s.ConditionalTrends("nope", gt.PhoneAttr); err == nil {
		t.Error("unknown group attribute should fail")
	}
	if _, err := s.ConditionalTrends(gt.PhoneAttr, "nope"); err == nil {
		t.Error("unknown ordinal attribute should fail")
	}
}
