package compare

import (
	"testing"

	"opmap/internal/car"
)

func TestScanWhereRestrictsPopulation(t *testing.T) {
	_, gt, ds := buildCaseStudy(t, 60000, 2)
	in := inputFor(t, ds, gt)
	timeAttr := ds.AttrIndex(gt.DistinguishingAttr)
	morning, _ := ds.Column(timeAttr).Dict.Lookup(gt.MorningValue)

	// Within morning calls, the two phones' gap is larger than overall
	// (the planted excess lives there).
	overall, err := Scan(ds, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	within, err := ScanWhere(ds, []car.Condition{{Attr: timeAttr, Value: morning}}, in, Options{})
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

	if _, err := ScanWhere(ds, []car.Condition{{Attr: ds.ClassIndex(), Value: 0}}, in, Options{}); err == nil {
		t.Error("fixed class should fail")
	}
	if _, err := ScanWhere(ds, []car.Condition{{Attr: in.Attr, Value: 0}}, in, Options{}); err == nil {
		t.Error("fixed comparison attribute should fail")
	}
	if _, err := ScanWhere(ds, []car.Condition{{Attr: timeAttr, Value: 0}, {Attr: timeAttr, Value: 1}}, in, Options{}); err == nil {
		t.Error("duplicate fixed attribute should fail")
	}
	if _, err := ScanWhere(ds, []car.Condition{{Attr: timeAttr, Value: 99}}, in, Options{}); err == nil {
		t.Error("bad fixed value should fail")
	}
	if _, err := ScanWhere(ds, []car.Condition{{Attr: 99, Value: 0}}, in, Options{}); err == nil {
		t.Error("bad fixed attribute should fail")
	}
	if _, err := ScanWhere(ds, []car.Condition{{Attr: timeAttr, Value: 0}}, in,
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
	if _, err := ScanWhere(ds, []car.Condition{{Attr: hw, Value: 2}}, in, Options{}); err == nil {
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
