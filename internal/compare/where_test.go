package compare

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"opmap/internal/car"
	"opmap/internal/dataset"
	"opmap/internal/rulecube"
	"opmap/internal/workload"
)

func TestScanWhereRestrictsPopulation(t *testing.T) {
	_, gt, ds := buildCaseStudy(t, 60000, 2)
	in := inputFor(t, ds, gt)
	timeAttr := ds.AttrIndex(gt.DistinguishingAttr)
	morning, _ := ds.Column(timeAttr).Dict.Lookup(gt.MorningValue)

	// Within morning calls, the two phones' gap is larger than overall
	// (the planted excess lives there).
	overall, err := Scan(context.Background(), ds, nil, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	within, err := Scan(context.Background(), ds, []car.Condition{{Attr: timeAttr, Value: morning}}, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if within.Cf2 <= overall.Cf2 {
		t.Errorf("morning-restricted bad-phone rate %.4f should exceed overall %.4f", within.Cf2, overall.Cf2)
	}
	// The fixed attribute is not ranked.
	if _, _, ok := within.Find(gt.DistinguishingAttr); ok {
		t.Error("fixed attribute leaked into the ranking")
	}
	// Counts match a manual filter.
	var n2 int64
	for r := 0; r < ds.NumRows(); r++ {
		if ds.CatCode(r, timeAttr) == morning && ds.CatCode(r, in.Attr) == within.Rule2.Conditions[0].Value {
			n2++
		}
	}
	if within.Rule2.CondCount != n2 {
		t.Errorf("restricted |D2| = %d, manual count %d", within.Rule2.CondCount, n2)
	}
}

func TestScanWhereValidation(t *testing.T) {
	_, gt, ds := buildCaseStudy(t, 5000, 0)
	in := inputFor(t, ds, gt)
	timeAttr := ds.AttrIndex(gt.DistinguishingAttr)

	if _, err := Scan(context.Background(), ds, []car.Condition{{Attr: ds.ClassIndex(), Value: 0}}, in, Options{}); err == nil {
		t.Error("fixed class should fail")
	}
	if _, err := Scan(context.Background(), ds, []car.Condition{{Attr: in.Attr, Value: 0}}, in, Options{}); err == nil {
		t.Error("fixed comparison attribute should fail")
	}
	if _, err := Scan(context.Background(), ds, []car.Condition{{Attr: timeAttr, Value: 0}, {Attr: timeAttr, Value: 1}}, in, Options{}); err == nil {
		t.Error("duplicate fixed attribute should fail")
	}
	if _, err := Scan(context.Background(), ds, []car.Condition{{Attr: timeAttr, Value: 99}}, in, Options{}); err == nil {
		t.Error("bad fixed value should fail")
	}
	if _, err := Scan(context.Background(), ds, []car.Condition{{Attr: 99, Value: 0}}, in, Options{}); err == nil {
		t.Error("bad fixed attribute should fail")
	}
	if _, err := Scan(context.Background(), ds, []car.Condition{{Attr: timeAttr, Value: 0}}, in,
		Options{Attrs: []int{timeAttr}}); err == nil {
		t.Error("ranking a fixed attribute should fail")
	}
}

func TestScanWhereEmptyIntersection(t *testing.T) {
	_, gt, ds := buildCaseStudy(t, 2000, 0)
	in := inputFor(t, ds, gt)
	// Hardware version is tied to the phone: fixing hw of phone 3 while
	// comparing ph1 vs ph2 leaves no matching records for either phone.
	hw := ds.AttrIndex(gt.PropertyAttr)
	if _, err := Scan(context.Background(), ds, []car.Condition{{Attr: hw, Value: 2}}, in, Options{}); err == nil {
		t.Error("empty sub-populations should fail")
	}
}

func TestScreenPairsQValues(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 40000, 0)
	phone := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	pairs, err := NewSource(store).ScreenPairs(phone, cls, ScreenOptions{MinZ: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	for _, p := range pairs {
		if p.QValue < p.PValue-1e-12 {
			t.Errorf("q (%v) below p (%v)", p.QValue, p.PValue)
		}
		if p.QValue < 0 || p.QValue > 1 {
			t.Errorf("q out of range: %v", p.QValue)
		}
	}
}

// filterScan is the reference for a conditioned Scan, the path Scan
// replaced: it copies the rows at which every condition holds into a
// new dataset with ds.Filter and compares on the copy without
// conditions, reading the input rules from the copy's 1-D cube of the
// comparison attribute, as Scan did before it counted them itself. Fixed attributes are left out of a default
// ranking. It does not validate the conditions.
func filterScan(ds *dataset.Dataset, where []car.Condition, in Input, opts Options) (*Result, error) {
	sub := ds.Filter(func(r int) bool {
		for _, f := range where {
			if ds.CatCode(r, f.Attr) != f.Value {
				return false
			}
		}
		return true
	})
	if len(where) > 0 {
		if sub.NumRows() == 0 {
			return nil, fmt.Errorf("compare: no records match the fixed conditions")
		}
		if opts.Attrs == nil {
			for a := 0; a < ds.NumAttrs(); a++ {
				if a != in.Attr && a != ds.ClassIndex() && !isFixed(where, a) {
					opts.Attrs = append(opts.Attrs, a)
				}
			}
		}
	}
	if err := checkInput(sub, in); err != nil {
		return nil, err
	}
	cubes, err := rulecube.BuildMany(context.Background(), sub, [][]int{{in.Attr}})
	if err != nil {
		return nil, err
	}
	cube := cubes[0]
	r1, err := cube.Rule([]int32{in.V1}, in.Class)
	if err != nil {
		return nil, err
	}
	r2, err := cube.Rule([]int32{in.V2}, in.Class)
	if err != nil {
		return nil, err
	}
	res, attrs, err := prepare(sub, r1, r2, in, opts, nil)
	if err != nil {
		return nil, err
	}
	v1, v2 := res.result.Rule1.Conditions[0].Value, res.result.Rule2.Conditions[0].Value
	tabs, _, err := rulecube.CountSlices(context.Background(), sub, in.Attr, v1, v2, nil, attrs)
	if err != nil {
		return nil, err
	}
	for k, ai := range attrs {
		res.addAttribute(sub, ai, res.sliceTable(tabs[k], in.Class))
	}
	res.finish()
	return res.result, nil
}

// checkAgainstFilterScan fails unless Scan with where and filterScan
// give the same answer, or errors with the same text. NaN property
// ratios (no value in either side) are set to -1 in both answers first,
// so that reflect.DeepEqual can compare them.
func checkAgainstFilterScan(t *testing.T, name string, ds *dataset.Dataset, where []car.Condition, in Input, opts Options) error {
	t.Helper()
	got, err := Scan(context.Background(), ds, where, in, opts)
	want, wantErr := filterScan(ds, where, in, opts)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s, conditions %v, options %+v: error %v, reference error %v", name, where, opts, err, wantErr)
		}
		return err
	}
	for _, res := range []*Result{got, want} {
		for _, scores := range [][]AttrScore{res.Ranked, res.Property} {
			for i := range scores {
				if math.IsNaN(scores[i].PropertyRatio) {
					scores[i].PropertyRatio = -1
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s, conditions %v, options %+v:\n got %+v\nwant %+v", name, where, opts, got, want)
	}
	return nil
}

// isFixed reports whether where has a condition on attribute a.
func isFixed(where []car.Condition, a int) bool {
	for _, f := range where {
		if f.Attr == a {
			return true
		}
	}
	return false
}

// randomWhere draws up to most conditions on distinct attributes of ds
// other than the class and skip, each on a value of the attribute's
// dictionary, where a label no row takes makes the set match no row.
func randomWhere(rng *rand.Rand, ds *dataset.Dataset, skip, most int) []car.Condition {
	var where []car.Condition
	for _, a := range rng.Perm(ds.NumAttrs())[:rng.Intn(most+1)] {
		if a != skip && a != ds.ClassIndex() {
			where = append(where, car.Condition{Attr: a, Value: int32(rng.Intn(ds.Cardinality(a)))})
		}
	}
	return where
}

// TestScanWhereMatchesFilterReference checks the conditioned Scan
// against filterScan over random sets of zero to three conditions, with
// CI on and off and with explicit candidate lists, on random small
// tables with missing values and classes and on a call log with 20% of
// its noise values missing. Every table's candidates hold a label no
// row takes, so some sets match no row; one such set is always tried
// and must fail with the reference's text.
func TestScanWhereMatchesFilterReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	calls, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 3, Records: 6000, NumPhones: 4, NoiseAttrs: 3, MissingRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	answered, noMatch := 0, 0
	for i := 0; i < 40; i++ {
		ds, in := randomGappyTable(t, rng, 4, 1), Input{Attr: 0, V1: 0, V2: 1, Class: int32(rng.Intn(2))}
		name := fmt.Sprintf("random table %d", i)
		if i%4 == 0 {
			ds, in = calls, inputFor(t, calls, gt)
			name = "call log"
		}
		none := []car.Condition{{Attr: 1, Value: int32(ds.Cardinality(1) - 1)}}
		if name != "call log" {
			if err := checkAgainstFilterScan(t, name, ds, none, in, Options{}); err == nil || err.Error() != "compare: no records match the fixed conditions" {
				t.Errorf("%s: a condition no row holds gave %v", name, err)
			}
		}
		for k := 0; k < 6; k++ {
			where := randomWhere(rng, ds, in.Attr, 3)
			opts := Options{DisableCI: k%2 == 1}
			if k >= 4 {
				opts.Attrs = []int{}
				for a := 1; a < ds.NumAttrs(); a++ {
					if a != in.Attr && a != ds.ClassIndex() && !isFixed(where, a) && rng.Intn(2) == 0 {
						opts.Attrs = append(opts.Attrs, a)
					}
				}
			}
			err := checkAgainstFilterScan(t, name, ds, where, in, opts)
			switch {
			case err == nil:
				answered++
			case err.Error() == "compare: no records match the fixed conditions":
				noMatch++
			}
		}
	}
	if answered < 100 || noMatch == 0 {
		t.Errorf("%d conditioned scans answered, %d matched no row: too few", answered, noMatch)
	}
}

// BenchmarkScanWhere times one conditioned comparison of two phones, of
// 200,000 calls with 80 condition attributes, within one Terrain
// value: Session.CompareWhere's scan.
func BenchmarkScanWhere(b *testing.B) {
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 1, Records: 200_000, NumPhones: 8, NoiseAttrs: 75})
	if err != nil {
		b.Fatal(err)
	}
	in := inputFor(b, ds, gt)
	where := []car.Condition{{Attr: ds.AttrIndex("Terrain"), Value: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(context.Background(), ds, where, in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
