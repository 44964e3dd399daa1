package gi

import (
	"context"
	"math"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/rulecube"
)

// trendDataset builds a dataset whose class-1 confidence strictly
// increases across the ordinal attribute "level" and is flat across
// "flat", with a spike on "spiky"'s 3rd value.
func trendDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "level", Kind: dataset.Categorical},
			{Name: "flat", Kind: dataset.Categorical},
			{Name: "spiky", Kind: dataset.Categorical},
			{Name: "class", Kind: dataset.Categorical},
		},
		ClassIndex: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.WithDict(0, dataset.DictionaryOf("l0", "l1", "l2", "l3"))
	b.WithDict(1, dataset.DictionaryOf("f0", "f1", "f2"))
	b.WithDict(2, dataset.DictionaryOf("s0", "s1", "s2", "s3", "s4"))
	b.WithDict(3, dataset.DictionaryOf("neg", "pos"))
	codes := make([]int32, 4)
	// level value k has pos-rate 10%·(k+1); flat has 20% everywhere;
	// spiky s2 has 80%, others 10%. We construct exact counts.
	emit := func(level, flat, spiky int32, pos bool, n int) {
		for i := 0; i < n; i++ {
			codes[0], codes[1], codes[2] = level, flat, spiky
			if pos {
				codes[3] = 1
			} else {
				codes[3] = 0
			}
			if err := b.AddCodedRow(codes, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Build level trend exactly: 1000 records per level value.
	for lv := int32(0); lv < 4; lv++ {
		posN := 100 * (int(lv) + 1)
		flat := lv % 3
		spiky := lv % 5
		emit(lv, flat, spiky, true, posN)
		emit(lv, flat, spiky, false, 1000-posN)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func cube1(t *testing.T, ds *dataset.Dataset, attr int) *rulecube.Cube {
	t.Helper()
	cubes, err := rulecube.BuildMany(context.Background(), ds, [][]int{{attr}})
	if err != nil {
		t.Fatal(err)
	}
	c := cubes[0]
	return c
}

func TestTrendsIncreasing(t *testing.T) {
	ds := trendDataset(t)
	trends, err := Trends(cube1(t, ds, 0), TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var found *Trend
	for i := range trends {
		if trends[i].ClassLabel == "pos" {
			found = &trends[i]
		}
	}
	if found == nil {
		t.Fatal("no trend detected for pos class on level")
	}
	if found.Kind != Increasing {
		t.Errorf("kind = %v, want increasing", found.Kind)
	}
	if found.Strength != 1 {
		t.Errorf("strength = %v, want 1 (perfectly monotone)", found.Strength)
	}
	// The complementary class must be decreasing.
	for _, tr := range trends {
		if tr.ClassLabel == "neg" && tr.Kind != Decreasing {
			t.Errorf("neg trend = %v, want decreasing", tr.Kind)
		}
	}
}

func TestTrendsStable(t *testing.T) {
	// Flat confidences → stable trend.
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Categorical},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 1,
	})
	b.WithDict(0, dataset.DictionaryOf("x", "y", "z"))
	b.WithDict(1, dataset.DictionaryOf("n", "p"))
	for v := int32(0); v < 3; v++ {
		for i := 0; i < 80; i++ {
			b.AddCodedRow([]int32{v, 0}, nil)
		}
		for i := 0; i < 20; i++ {
			b.AddCodedRow([]int32{v, 1}, nil)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	trends, err := Trends(cube1(t, ds, 0), TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(trends) != 2 {
		t.Fatalf("got %d trends, want 2 (both classes stable)", len(trends))
	}
	for _, tr := range trends {
		if tr.Kind != Stable {
			t.Errorf("kind = %v, want stable", tr.Kind)
		}
	}
}

func TestTrendsRejects3D(t *testing.T) {
	ds := trendDataset(t)
	cubes, err := rulecube.BuildMany(context.Background(), ds, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	c := cubes[0]
	if _, err := Trends(c, TrendOptions{}); err == nil {
		t.Error("3-D cube should be rejected")
	}
}

func TestClassifyMixed(t *testing.T) {
	kind, _ := classify([]float64{0.1, 0.5, 0.2, 0.6, 0.1}, 0.005)
	if kind != NoTrend {
		t.Errorf("zigzag classified as %v", kind)
	}
	kind, strength := classify([]float64{0.1, 0.2, 0.2, 0.3}, 0.005)
	if kind != Increasing {
		t.Errorf("mostly-up = %v, want increasing", kind)
	}
	if strength != 1 {
		t.Errorf("flat steps should count toward monotone strength, got %v", strength)
	}
}

func TestExceptionsFindsSpike(t *testing.T) {
	// 6 values at 10% plus one at 80%.
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Categorical},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 1,
	})
	dict := dataset.NewDictionary()
	for i := 0; i < 7; i++ {
		dict.Code(string(rune('a' + i)))
	}
	b.WithDict(0, dict)
	b.WithDict(1, dataset.DictionaryOf("n", "p"))
	for v := int32(0); v < 7; v++ {
		posRate := 0.1
		if v == 3 {
			posRate = 0.8
		}
		pos := int(posRate * 200)
		for i := 0; i < pos; i++ {
			b.AddCodedRow([]int32{v, 1}, nil)
		}
		for i := 0; i < 200-pos; i++ {
			b.AddCodedRow([]int32{v, 0}, nil)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exs, err := Exceptions(cube1(t, ds, 0), ExceptionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) == 0 {
		t.Fatal("spike not detected")
	}
	// Both classes flag value "d" (pos spikes up, neg mirrors down); find
	// the pos-class exception and check its direction and magnitude.
	var top *Exception
	for i := range exs {
		if exs[i].ClassLabel == "p" {
			top = &exs[i]
			break
		}
	}
	if top == nil {
		t.Fatal("no exception on the pos class")
	}
	if top.ValueLabel != "d" {
		t.Errorf("pos exception at %q, want %q", top.ValueLabel, "d")
	}
	if top.ZScore < 2 {
		t.Errorf("z = %v, want ≥ 2", top.ZScore)
	}
	if top.Confidence != 0.8 {
		t.Errorf("confidence = %v", top.Confidence)
	}
}

func TestExceptionsMinSupport(t *testing.T) {
	ds := trendDataset(t)
	// Absurd min support filters everything.
	exs, err := Exceptions(cube1(t, ds, 0), ExceptionOptions{MinSupport: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) != 0 {
		t.Error("min support not honored")
	}
}

func TestInfluentialAttributesOrder(t *testing.T) {
	infs, err := InfluentialAttributesSource(context.Background(), pinnedSource(t, trendDataset(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(infs) != 3 {
		t.Fatalf("got %d influences, want 3", len(infs))
	}
	// "level" carries the class signal; "flat"'s signal is a side effect
	// of the deterministic construction but weaker.
	if infs[0].AttrName != "level" {
		t.Errorf("top influence = %q, want level", infs[0].AttrName)
	}
	for i := 1; i < len(infs); i++ {
		if infs[i].ChiSquare > infs[i-1].ChiSquare {
			t.Error("influences not sorted by chi-square")
		}
	}
	if infs[0].PValue > 0.01 {
		t.Errorf("level p-value = %v, want tiny", infs[0].PValue)
	}
	if infs[0].MutualInformation <= 0 {
		t.Error("level MI should be positive")
	}
}

func TestMineAll(t *testing.T) {
	rep, err := MineAllSource(context.Background(), pinnedSource(t, trendDataset(t)), TrendOptions{}, ExceptionOptions{MinSupport: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Influential) != 3 {
		t.Error("influences missing")
	}
	if len(rep.Trends) == 0 {
		t.Error("trends missing")
	}
	// Exceptions sorted by |z|.
	for i := 1; i < len(rep.Exceptions); i++ {
		if math.Abs(rep.Exceptions[i].ZScore) > math.Abs(rep.Exceptions[i-1].ZScore)+1e-12 {
			t.Error("exceptions not sorted")
		}
	}
}

func TestTrendKindString(t *testing.T) {
	for k, want := range map[TrendKind]string{
		NoTrend: "none", Increasing: "increasing", Decreasing: "decreasing", Stable: "stable",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if TrendKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestTrendsWithin(t *testing.T) {
	// Build a 3-D cube where group g1's pos-rate increases across the
	// ordinal attribute and g0's stays flat.
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "group", Kind: dataset.Categorical},
			{Name: "level", Kind: dataset.Categorical},
			{Name: "class", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	b.WithDict(0, dataset.DictionaryOf("g0", "g1"))
	b.WithDict(1, dataset.DictionaryOf("l0", "l1", "l2", "l3"))
	b.WithDict(2, dataset.DictionaryOf("neg", "pos"))
	emit := func(g, l int32, posN, total int) {
		for i := 0; i < posN; i++ {
			b.AddCodedRow([]int32{g, l, 1}, nil)
		}
		for i := 0; i < total-posN; i++ {
			b.AddCodedRow([]int32{g, l, 0}, nil)
		}
	}
	for l := int32(0); l < 4; l++ {
		emit(0, l, 100, 1000)            // g0 flat 10%
		emit(1, l, 100*(int(l)+1), 1000) // g1 rising 10..40%
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
	cts, err := TrendsWithin(cube, TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var g0Kind, g1Kind TrendKind
	for _, ct := range cts {
		if ct.Trend.ClassLabel != "pos" {
			continue
		}
		switch ct.FixedLabel {
		case "g0":
			g0Kind = ct.Trend.Kind
		case "g1":
			g1Kind = ct.Trend.Kind
		}
		if ct.FixedName != "group" || ct.Trend.AttrName != "level" {
			t.Errorf("metadata wrong: %+v", ct)
		}
	}
	if g1Kind != Increasing {
		t.Errorf("g1 trend = %v, want increasing", g1Kind)
	}
	if g0Kind != Stable {
		t.Errorf("g0 trend = %v, want stable", g0Kind)
	}
	// 2-D cubes rejected.
	cubes, err = rulecube.BuildMany(context.Background(), ds, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	flat := cubes[0]
	if _, err := TrendsWithin(flat, TrendOptions{}); err == nil {
		t.Error("2-D cube should be rejected")
	}
}
