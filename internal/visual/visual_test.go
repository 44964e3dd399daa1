package visual

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"opmap/internal/compare"
	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/gi"
	"opmap/internal/rulecube"
	"opmap/internal/workload"
)

// fixtures returns the planted call log's pinned engine (the eager
// session's) and its ph1-vs-ph2 comparison.
func fixtures(t *testing.T) (*engine.LazySource, *compare.Result, compare.AttrScore, workload.GroundTruth) {
	t.Helper()
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 21, Records: 30000, NoiseAttrs: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.PinAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	attr := ds.AttrIndex(gt.PhoneAttr)
	v1, _ := ds.Column(attr).Dict.Lookup(gt.GoodPhone)
	v2, _ := ds.Column(attr).Dict.Lookup(gt.BadPhone)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	res, err := compare.NewSource(src).Compare(compare.Input{Attr: attr, V1: v1, V2: v2, Class: cls}, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	score, _, ok := res.Find(gt.DistinguishingAttr)
	if !ok {
		t.Fatal("distinguishing attribute missing")
	}
	return src, res, score, gt
}

func TestOverallRendersEveryAttribute(t *testing.T) {
	src, _, _, gt := fixtures(t)
	var buf bytes.Buffer
	rep, err := gi.MineAllSource(context.Background(), src, gi.TrendOptions{}, gi.ExceptionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Overall(context.Background(), &buf, src, OverallOptions{Scale: true, Trends: rep.Trends}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{gt.PhoneAttr, gt.DistinguishingAttr, gt.PropertyAttr} {
		if !strings.Contains(out, name) {
			t.Errorf("overall view missing attribute %q", name)
		}
	}
	if !strings.Contains(out, gt.DropClass) {
		t.Error("overall view missing class distribution")
	}
	// Class scaling note: sparklines should be present (block glyphs).
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Error("no bars rendered")
	}
}

func TestOverallTruncatesWideAttributes(t *testing.T) {
	src, _, _, _ := fixtures(t)
	var buf bytes.Buffer
	if err := Overall(context.Background(), &buf, src, OverallOptions{Scale: true, MaxValuesPerGrid: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "values)") {
		t.Error("wide attributes should be marked as truncated")
	}
}

// cubeOf returns src's cube over attrs.
func cubeOf(t *testing.T, src *engine.LazySource, attrs ...int) *rulecube.Cube {
	t.Helper()
	c, err := src.CubeN(context.Background(), attrs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDetailedShowsCountsAndRates(t *testing.T) {
	src, _, _, gt := fixtures(t)
	cube := cubeOf(t, src, src.Dataset().AttrIndex(gt.PhoneAttr))
	var buf bytes.Buffer
	if err := Detailed(&buf, cube); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, gt.GoodPhone) || !strings.Contains(out, gt.BadPhone) {
		t.Error("detailed view missing phone values")
	}
	if !strings.Contains(out, "n=") || !strings.Contains(out, "%") {
		t.Error("detailed view missing counts/percentages (Fig. 6 requirement)")
	}
}

func TestDetailedRejects3D(t *testing.T) {
	src, _, _, _ := fixtures(t)
	attrs := src.Attrs()
	cube := cubeOf(t, src, attrs[0], attrs[1])
	if err := Detailed(&bytes.Buffer{}, cube); err == nil {
		t.Error("3-D cube should be rejected")
	}
}

func TestComparisonViewShowsCIAndContributions(t *testing.T) {
	_, res, score, gt := fixtures(t)
	var buf bytes.Buffer
	Comparison(&buf, res, score, gt.GoodPhone, gt.BadPhone)
	out := buf.String()
	if !strings.Contains(out, "±") {
		t.Error("comparison view missing CI margins")
	}
	if !strings.Contains(out, "W=") {
		t.Error("comparison view missing contributions")
	}
	if !strings.Contains(out, "morning") {
		t.Error("comparison view missing value labels")
	}
	if !strings.Contains(out, "▒") {
		t.Error("comparison bars missing CI region glyphs (Fig. 7 grey regions)")
	}
}

func TestRankingSeparatesPropertyAttributes(t *testing.T) {
	_, res, _, gt := fixtures(t)
	var buf bytes.Buffer
	Ranking(&buf, res, 5)
	out := buf.String()
	if !strings.Contains(out, "Property attributes") {
		t.Error("ranking missing property section")
	}
	if !strings.Contains(out, gt.PropertyAttr) {
		t.Error("property attribute not listed")
	}
	// The top line must be the planted distinguishing attribute.
	lines := strings.Split(out, "\n")
	if len(lines) < 2 || !strings.Contains(lines[1], gt.DistinguishingAttr) {
		t.Errorf("first ranked line %q should name %q", lines[1], gt.DistinguishingAttr)
	}
}

func TestComparisonSVGWellFormed(t *testing.T) {
	_, res, score, gt := fixtures(t)
	var buf bytes.Buffer
	if err := ComparisonSVG(&buf, res, score, gt.GoodPhone, gt.BadPhone); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Error("SVG not well formed")
	}
	// Red observed-rate lines and grey CI rects per the paper's Fig. 7.
	if !strings.Contains(out, "#cc0000") {
		t.Error("missing red observed-rate lines")
	}
	if !strings.Contains(out, "#999999") {
		t.Error("missing grey CI regions")
	}
	if strings.Count(out, "<rect") < 2*len(score.Values) {
		t.Error("too few bars")
	}
}

func TestComparisonSVGEmptyScore(t *testing.T) {
	_, res, _, _ := fixtures(t)
	if err := ComparisonSVG(&bytes.Buffer{}, res, compare.AttrScore{Name: "empty"}, "a", "b"); err == nil {
		t.Error("empty score should fail")
	}
}

func TestDetailedSVGWellFormed(t *testing.T) {
	src, _, _, gt := fixtures(t)
	cube := cubeOf(t, src, src.Dataset().AttrIndex(gt.DistinguishingAttr))
	var buf bytes.Buffer
	if err := DetailedSVG(&buf, cube); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") {
		t.Error("not an SVG")
	}
	if !strings.Contains(out, "morning") {
		t.Error("missing value labels")
	}
	// Escaping check.
	if strings.Contains(out, "<text") && strings.Contains(out, "&lt;script") {
		t.Error("unexpected content")
	}
}

func TestSVGEscape(t *testing.T) {
	if escape(`<a&"b>`) != "&lt;a&amp;&quot;b&gt;" {
		t.Errorf("escape = %q", escape(`<a&"b>`))
	}
}

func TestSparklineBounds(t *testing.T) {
	s := sparkline([]float64{-1, 0, 0.5, 1, 2}, 1)
	if len([]rune(s)) != 5 {
		t.Errorf("sparkline length %d, want 5", len([]rune(s)))
	}
	// Out-of-range values clamp to first/last glyph.
	runes := []rune(s)
	if runes[0] != barGlyphs[0] || runes[4] != barGlyphs[len(barGlyphs)-1] {
		t.Error("clamping broken")
	}
	if sparkline([]float64{0.5}, 0) == "" {
		t.Error("zero max should not panic or return empty")
	}
}

func TestHbar(t *testing.T) {
	if hbar(0.5, 10) != "█████·····" {
		t.Errorf("hbar = %q", hbar(0.5, 10))
	}
	if hbar(-1, 4) != "····" || hbar(2, 4) != "████" {
		t.Error("hbar clamping broken")
	}
}

func TestCIBar(t *testing.T) {
	b := ciBar(0.5, 0.25, 1, 8)
	if len([]rune(b)) != 8 {
		t.Fatalf("width = %d", len([]rune(b)))
	}
	if !strings.Contains(b, "▒") {
		t.Error("CI region missing")
	}
	// Zero margin → no fuzzy region.
	if strings.Contains(ciBar(0.5, 0, 1, 8), "▒") {
		t.Error("zero margin should have no CI region")
	}
}

func TestTrendArrow(t *testing.T) {
	if trendArrow(gi.Increasing) != "↑" || trendArrow(gi.Decreasing) != "↓" || trendArrow(gi.Stable) != "→" {
		t.Error("trend arrows wrong")
	}
	if trendArrow(gi.NoTrend) != " " {
		t.Error("no-trend should be blank")
	}
}

func TestDictEdge(t *testing.T) {
	// Property view content is exercised via Ranking; ensure rendering a
	// cube with one empty class doesn't panic.
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Categorical},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 1,
	})
	b.WithDict(1, dataset.DictionaryOf("only", "never"))
	b.AddRow([]string{"x", "only"})
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cubes, err := rulecube.BuildMany(context.Background(), ds, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	cube := cubes[0]
	if err := Detailed(&bytes.Buffer{}, cube); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyView(t *testing.T) {
	_, res, _, gt := fixtures(t)
	var prop compare.AttrScore
	found := false
	for _, p := range res.Property {
		if p.Name == gt.PropertyAttr {
			prop = p
			found = true
		}
	}
	if !found {
		t.Fatal("planted property attribute missing")
	}
	var buf bytes.Buffer
	PropertyView(&buf, res, prop, gt.GoodPhone, gt.BadPhone)
	out := buf.String()
	if !strings.Contains(out, "exclusivity ratio 1.00") {
		t.Error("ratio missing")
	}
	if !strings.Contains(out, "<- 0 count") {
		t.Error("zero-count marker missing (the Fig. 8 point)")
	}
	if !strings.Contains(out, gt.PropertyAttr) {
		t.Error("attribute name missing")
	}
	// A non-property score renders with a caveat, not a panic.
	buf.Reset()
	PropertyView(&buf, res, compare.AttrScore{Name: "x"}, "a", "b")
	if !strings.Contains(buf.String(), "below the property threshold") {
		t.Error("non-property caveat missing")
	}
}

func TestDetailed3D(t *testing.T) {
	src, _, _, gt := fixtures(t)
	ds := src.Dataset()
	cube := cubeOf(t, src, ds.AttrIndex(gt.PhoneAttr), ds.AttrIndex(gt.DistinguishingAttr))
	var buf bytes.Buffer
	if err := Detailed3D(&buf, cube); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, gt.PhoneAttr) || !strings.Contains(out, gt.DistinguishingAttr) {
		t.Error("3-D view missing attribute names")
	}
	if !strings.Contains(out, gt.GoodPhone) {
		t.Error("3-D view missing first-dimension values")
	}
	if !strings.Contains(out, "morning=") {
		t.Error("3-D view missing annotated second-dimension confidences")
	}
	// Rejects 2-D cubes.
	if err := Detailed3D(&bytes.Buffer{}, cubeOf(t, src, ds.AttrIndex(gt.PhoneAttr))); err == nil {
		t.Error("2-D cube should be rejected")
	}
}

func TestOverallSVGWellFormed(t *testing.T) {
	src, _, _, gt := fixtures(t)
	rep, err := gi.MineAllSource(context.Background(), src, gi.TrendOptions{}, gi.ExceptionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := OverallSVG(context.Background(), &buf, src, OverallOptions{Scale: true, Trends: rep.Trends}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("SVG not well formed")
	}
	for _, name := range []string{gt.PhoneAttr, gt.DistinguishingAttr} {
		if !strings.Contains(out, name) {
			t.Errorf("overall SVG missing attribute %q", name)
		}
	}
	if !strings.Contains(out, gt.DropClass) {
		t.Error("overall SVG missing class headers")
	}
	// One grid frame per attribute per class.
	wantFrames := len(src.Attrs()) * src.Dataset().NumClasses()
	if strings.Count(out, "#f4f4f4") != wantFrames {
		t.Errorf("grid frames = %d, want %d", strings.Count(out, "#f4f4f4"), wantFrames)
	}
}
