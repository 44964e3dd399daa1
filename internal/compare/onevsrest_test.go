package compare

import (
	"errors"
	"math"
	"slices"
	"testing"

	"opmap/internal/dataset"
)

func TestOneVsRestRecoversPlantedCause(t *testing.T) {
	// The bad phone's drops concentrate in the morning, so comparing
	// "morning vs rest" on the drop class should surface Phone-Model as
	// the best-distinguishing attribute (only the bad phone misbehaves
	// in the morning) — the Section III.C scenario.
	store, gt, ds := buildCaseStudy(t, 60000, 5)
	timeAttr := ds.AttrIndex(gt.DistinguishingAttr)
	morning, ok := ds.Column(timeAttr).Dict.Lookup(gt.MorningValue)
	if !ok {
		t.Fatal("morning value missing")
	}
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	res, err := NewSource(store).OneVsRest(OneVsRestInput{Attr: timeAttr, Value: morning, Class: cls}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cf1 >= res.Cf2 {
		t.Fatalf("orientation broken: cf1=%v cf2=%v", res.Cf1, res.Cf2)
	}
	// Morning is the worse side, so the comparison should NOT be swapped
	// (rest has the lower drop rate).
	if !res.Swapped {
		t.Error("morning side has the higher rate; expected Swapped=true orientation bookkeeping")
	}
	if len(res.Ranked) == 0 {
		t.Fatal("no ranked attributes")
	}
	first := res.Ranked[0].Name
	if first != gt.PhoneAttr && first != gt.PropertyAttr {
		t.Errorf("top attribute = %q, want %q (or its proxy %q)", first, gt.PhoneAttr, gt.PropertyAttr)
	}
}

func TestOneVsRestCountsConsistent(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 20000, 2)
	timeAttr := ds.AttrIndex(gt.DistinguishingAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	res, err := NewSource(store).OneVsRest(OneVsRestInput{Attr: timeAttr, Value: 0, Class: cls}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The two sides partition the cube total.
	if res.Rule1.CondCount+res.Rule2.CondCount != cube1(t, store, timeAttr).Total() {
		t.Errorf("sides do not partition the data: %d + %d != %d",
			res.Rule1.CondCount, res.Rule2.CondCount, cube1(t, store, timeAttr).Total())
	}
	// Per candidate attribute, N1+N2 per value equals the marginal.
	for _, s := range append(res.Ranked, res.Property...) {
		marg := cube1(t, store, s.Attr)
		for k := range s.Values {
			d := res.Detail(s, k)
			all, err := marg.CondCount([]int32{d.Value})
			if err != nil {
				t.Fatal(err)
			}
			if d.N1+d.N2 != all {
				t.Fatalf("%s=%s: %d + %d != marginal %d", s.Name, d.Label, d.N1, d.N2, all)
			}
		}
	}
}

func TestOneVsRestValidation(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 5000, 0)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	c := NewSource(store)
	timeAttr := ds.AttrIndex(gt.DistinguishingAttr)
	if _, err := c.OneVsRest(OneVsRestInput{Attr: ds.ClassIndex(), Value: 0, Class: cls}, Options{}); err == nil {
		t.Error("class attribute should fail")
	}
	if _, err := c.OneVsRest(OneVsRestInput{Attr: timeAttr, Value: 99, Class: cls}, Options{}); err == nil {
		t.Error("bad value should fail")
	}
	if _, err := c.OneVsRest(OneVsRestInput{Attr: timeAttr, Value: 0, Class: 99}, Options{}); err == nil {
		t.Error("bad class should fail")
	}
	if _, err := c.OneVsRest(OneVsRestInput{Attr: timeAttr, Value: 0, Class: cls}, Options{MinRuleSupport: 1 << 40}); err == nil {
		t.Error("MinRuleSupport should reject")
	}
}

func TestOneVsRestAgreesWithScanOnTwoValueAttr(t *testing.T) {
	// For a two-valued attribute, one-vs-rest IS the pairwise comparison.
	store, gt, ds := buildCaseStudy(t, 40000, 2)
	// Build a two-valued view by comparing hardware version? Phone has 6
	// values; use Signal-Band (3 values)? Need exactly 2. Construct via
	// the proportional attr? Simplest: dice isn't available on datasets,
	// so check internal consistency instead: one-vs-rest on value v of a
	// 2-valued attribute equals Compare(v, other).
	// The call log has no 2-valued attribute, so synthesize agreement on
	// counts: OneVsRest(phone=good) rest-side counts must equal the sum
	// of all other phones' counts.
	phone := ds.AttrIndex(gt.PhoneAttr)
	good, _ := ds.Column(phone).Dict.Lookup(gt.GoodPhone)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	res, err := NewSource(store).OneVsRest(OneVsRestInput{Attr: phone, Value: good, Class: cls}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cube := cube1(t, store, phone)
	var restCond, restSup int64
	for v := int32(0); int(v) < cube.Dim(0); v++ {
		if v == good {
			continue
		}
		n, _ := cube.CondCount([]int32{v})
		s, _ := cube.Count([]int32{v}, cls)
		restCond += n
		restSup += s
	}
	// The good phone has the lower rate, so Rule2 is the rest side.
	if res.Rule2.CondCount != restCond || res.Rule2.SupCount != restSup {
		t.Errorf("rest side counts (%d,%d), want (%d,%d)",
			res.Rule2.CondCount, res.Rule2.SupCount, restCond, restSup)
	}

	// The same two sub-populations, recounted row by row and scored
	// one candidate at a time through CompareValues, give the same
	// scores and ranking: both go through the one preamble. The call
	// log has no missing values, so each candidate's per-value counts
	// total the input rules.
	var ranked, property []AttrScore
	for a := 0; a < ds.NumAttrs(); a++ {
		if a == phone || a == ds.ClassIndex() {
			continue
		}
		card := ds.Cardinality(a)
		n := [2][]int64{make([]int64, card), make([]int64, card)}
		c := [2][]int64{make([]int64, card), make([]int64, card)}
		for r := 0; r < ds.NumRows(); r++ {
			side := 1
			if ds.CatCode(r, phone) == good {
				side = 0
			}
			k := ds.CatCode(r, a)
			if k < 0 || ds.ClassCode(r) < 0 {
				continue
			}
			n[side][k]++
			if ds.ClassCode(r) == cls {
				c[side][k]++
			}
		}
		s, one, err := CompareValues(ds.Attr(a).Name, nil, n[0], c[0], n[1], c[1], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if one.Cf1 != res.Cf1 || one.Cf2 != res.Cf2 || one.Swapped != res.Swapped {
			t.Fatalf("%s: CompareValues oriented cf1=%v cf2=%v swapped=%t, one-vs-rest cf1=%v cf2=%v swapped=%t",
				s.Name, one.Cf1, one.Cf2, one.Swapped, res.Cf1, res.Cf2, res.Swapped)
		}
		if s.Property {
			property = append(property, s)
		} else {
			ranked = append(ranked, s)
		}
	}
	for _, l := range []struct {
		name      string
		got, want []AttrScore
	}{{"ranked", ranked, res.Ranked}, {"property", property, res.Property}} {
		slices.SortStableFunc(l.got, func(a, b AttrScore) int { return byScore(&a, &b) })
		if len(l.got) != len(l.want) {
			t.Fatalf("%s: CompareValues gives %d attributes, one-vs-rest %d", l.name, len(l.got), len(l.want))
		}
		for i := range l.got {
			if l.got[i].Name != l.want[i].Name || l.got[i].Score != l.want[i].Score {
				t.Errorf("%s %d: CompareValues %s (%v), one-vs-rest %s (%v)",
					l.name, i, l.got[i].Name, l.got[i].Score, l.want[i].Name, l.want[i].Score)
			}
		}
	}

	// Each data-dependent failure of the preamble, on a two-valued
	// split: one-vs-rest, the pairwise compare and CompareValues all
	// refuse it as ErrValueUndefined, and OneVsRestAll skips both
	// values.
	side := func(label string, rows, drops int) [][]string {
		out := make([][]string, rows)
		for i := range out {
			class := "ok"
			if i < drops {
				class = "drop"
			}
			out[i] = []string{label, []string{"x1", "x2"}[i%2], class}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		rows [][]string
		opts Options
	}{
		{"side below MinRuleSupport", slices.Concat(side("a", 5, 1), side("b", 50, 10)), Options{MinRuleSupport: 10}},
		// b is in the dictionary, but its one row has no class.
		{"empty side", slices.Concat(side("a", 20, 4), [][]string{{"b", "x1", dataset.MissingLabel}}), Options{}},
		{"lower side with zero confidence", slices.Concat(side("a", 20, 0), side("b", 20, 5)), Options{}},
		// drop is a class only on a row with no split value.
		{"class absent from both sides", slices.Concat(side("a", 20, 0), side("b", 20, 0), [][]string{{dataset.MissingLabel, "x1", "drop"}}), Options{}},
	} {
		b, err := dataset.NewBuilder(dataset.Schema{
			Attrs: []dataset.Attribute{
				{Name: "Split", Kind: dataset.Categorical},
				{Name: "X", Kind: dataset.Categorical},
				{Name: "Class", Kind: dataset.Categorical},
			},
			ClassIndex: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tc.rows {
			if err := b.AddRow(row); err != nil {
				t.Fatal(err)
			}
		}
		tds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		va, _ := tds.Column(0).Dict.Lookup("a")
		vb, _ := tds.Column(0).Dict.Lookup("b")
		drop, ok := tds.ClassDict().Lookup("drop")
		if !ok {
			t.Fatalf("%s: no drop class", tc.name)
		}
		c := NewSource(pinAll(t, tds))
		_, err = c.OneVsRest(OneVsRestInput{Attr: 0, Value: va, Class: drop}, tc.opts)
		if !errors.Is(err, ErrValueUndefined) {
			t.Errorf("%s: one-vs-rest error %v, want ErrValueUndefined", tc.name, err)
		}
		if _, err := c.Compare(Input{Attr: 0, V1: va, V2: vb, Class: drop}, tc.opts); !errors.Is(err, ErrValueUndefined) {
			t.Errorf("%s: compare error %v, want ErrValueUndefined", tc.name, err)
		}
		all, err := c.OneVsRestAll(0, drop, OneVsRestAllOptions{Compare: tc.opts})
		if err != nil || len(all.Values) != 0 || len(all.Skipped) != 2 {
			t.Errorf("%s: OneVsRestAll ranked %d values and skipped %d (err %v), want both skipped", tc.name, len(all.Values), len(all.Skipped), err)
		}
		// CompareValues over X's per-value counts of each side.
		n := [2][]int64{make([]int64, 2), make([]int64, 2)}
		cc := [2][]int64{make([]int64, 2), make([]int64, 2)}
		for r := 0; r < tds.NumRows(); r++ {
			v, cl := tds.CatCode(r, 0), tds.ClassCode(r)
			if v < 0 || cl < 0 {
				continue
			}
			s := 0
			if v == vb {
				s = 1
			}
			n[s][tds.CatCode(r, 1)]++
			if cl == drop {
				cc[s][tds.CatCode(r, 1)]++
			}
		}
		if _, _, err := CompareValues("X", nil, n[0], cc[0], n[1], cc[1], tc.opts); !errors.Is(err, ErrValueUndefined) {
			t.Errorf("%s: CompareValues error %v, want ErrValueUndefined", tc.name, err)
		}
		if tc.opts.MinRuleSupport > 0 {
			// The counts themselves are comparable: only MinRuleSupport
			// refuses them.
			if _, _, err := CompareValues("X", nil, n[0], cc[0], n[1], cc[1], Options{}); err != nil {
				t.Errorf("%s: CompareValues without MinRuleSupport: %v", tc.name, err)
			}
		}
	}
}

func TestScreenPairsFindsPlantedGap(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 60000, 2)
	phone := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	pairs, err := NewSource(store).ScreenPairs(phone, cls, ScreenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no candidate pairs")
	}
	top := pairs[0]
	// The most significant gap must involve the bad phone.
	if top.Label1 != gt.BadPhone && top.Label2 != gt.BadPhone {
		t.Errorf("top pair (%s,%s) does not involve the bad phone %q", top.Label1, top.Label2, gt.BadPhone)
	}
	if top.Cf1 >= top.Cf2 {
		t.Error("pair not oriented")
	}
	if top.Z < 2 {
		t.Errorf("top z = %v", top.Z)
	}
	if top.PValue > 0.05 {
		t.Errorf("top p = %v", top.PValue)
	}
	// Sorted by descending z among finite-ratio pairs.
	for i := 1; i < len(pairs); i++ {
		if math.IsInf(pairs[i-1].Ratio, 1) && !math.IsInf(pairs[i].Ratio, 1) {
			t.Fatal("infinite-ratio pairs must sort last")
		}
		if !math.IsInf(pairs[i-1].Ratio, 1) && !math.IsInf(pairs[i].Ratio, 1) &&
			pairs[i].Z > pairs[i-1].Z+1e-12 {
			t.Fatal("pairs not sorted by z")
		}
	}
}

func TestScreenPairsOptions(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 20000, 0)
	phone := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	c := NewSource(store)
	all, err := c.ScreenPairs(phone, cls, ScreenOptions{MinZ: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := c.ScreenPairs(phone, cls, ScreenOptions{MinZ: 0.0001, MaxPairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 2 {
		t.Errorf("MaxPairs not honored: %d", len(capped))
	}
	if len(all) < len(capped) {
		t.Error("cap returned more than uncapped")
	}
	// Huge min support filters all values.
	none, err := c.ScreenPairs(phone, cls, ScreenOptions{MinSupport: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Error("MinSupport not honored")
	}
	if _, err := c.ScreenPairs(ds.ClassIndex(), cls, ScreenOptions{}); err == nil {
		t.Error("class attribute should fail")
	}
	if _, err := c.ScreenPairs(phone, 99, ScreenOptions{}); err == nil {
		t.Error("bad class should fail")
	}
}

func TestTwoProportionZ(t *testing.T) {
	// Identical proportions → z = 0.
	if z := twoProportionZ(10, 100, 20, 200); z != 0 {
		t.Errorf("equal proportions z = %v", z)
	}
	// Known value: 10/100 vs 20/100, pooled 0.15.
	z := twoProportionZ(10, 100, 20, 100)
	want := (0.2 - 0.1) / math.Sqrt(0.15*0.85*(0.02))
	if math.Abs(z-want) > 1e-12 {
		t.Errorf("z = %v, want %v", z, want)
	}
	if twoProportionZ(0, 0, 5, 10) != 0 {
		t.Error("zero n should yield 0")
	}
	if twoProportionZ(0, 10, 0, 10) != 0 {
		t.Error("zero pooled should yield 0")
	}
}

func TestScreenThenCompareWorkflow(t *testing.T) {
	// The intended workflow: screen pairs, feed the top pair to Compare.
	store, gt, ds := buildCaseStudy(t, 60000, 2)
	phone := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	c := NewSource(store)
	pairs, err := c.ScreenPairs(phone, cls, ScreenOptions{MaxPairs: 1})
	if err != nil || len(pairs) == 0 {
		t.Fatalf("screening failed: %v", err)
	}
	res, err := c.Compare(Input{Attr: phone, V1: pairs[0].V1, V2: pairs[0].V2, Class: cls}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranked[0].Name != gt.DistinguishingAttr {
		t.Errorf("screen→compare top = %q, want %q", res.Ranked[0].Name, gt.DistinguishingAttr)
	}
}
