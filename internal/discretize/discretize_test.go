package discretize

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"opmap/internal/dataset"
)

func TestEqualWidthCuts(t *testing.T) {
	values := []float64{0, 10}
	cuts, err := EqualWidth{Bins: 5}.Cuts(values, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6, 8}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v, want %v", cuts, want)
	}
	for i := range want {
		if math.Abs(cuts[i]-want[i]) > 1e-9 {
			t.Errorf("cut %d = %v, want %v", i, cuts[i], want[i])
		}
	}
}

func TestEqualWidthDegenerate(t *testing.T) {
	// Constant column → no cuts.
	cuts, err := EqualWidth{Bins: 4}.Cuts([]float64{3, 3, 3}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 {
		t.Errorf("constant column cuts = %v, want none", cuts)
	}
	// Only NaN → no cuts, no error.
	cuts, err = EqualWidth{Bins: 4}.Cuts([]float64{math.NaN()}, nil, 0)
	if err != nil || len(cuts) != 0 {
		t.Errorf("NaN-only column: cuts=%v err=%v", cuts, err)
	}
	if _, err := (EqualWidth{Bins: 0}).Cuts([]float64{1}, nil, 0); err == nil {
		t.Error("zero bins should fail")
	}
}

func TestEqualFrequencyCuts(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i)
	}
	cuts, err := EqualFrequency{Bins: 4}.Cuts(values, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 3 {
		t.Fatalf("cuts = %v, want 3 cuts", cuts)
	}
	// Each bin should get about 25 values.
	counts := make([]int, 4)
	for _, v := range values {
		counts[BinOf(cuts, v)]++
	}
	for i, c := range counts {
		if c < 20 || c > 30 {
			t.Errorf("bin %d holds %d values, want ≈25", i, c)
		}
	}
}

func TestEqualFrequencySkewed(t *testing.T) {
	// Heavily repeated values must not create duplicate or empty-tail cuts.
	values := []float64{1, 1, 1, 1, 1, 1, 1, 1, 2, 3}
	cuts, err := EqualFrequency{Bins: 4}.Cuts(values, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not strictly increasing: %v", cuts)
		}
	}
	if len(cuts) > 0 && cuts[len(cuts)-1] >= 3 {
		t.Errorf("trailing cut at the max creates an empty interval: %v", cuts)
	}
}

func TestManualCuts(t *testing.T) {
	cuts, err := Manual{Points: []float64{5, 1, 5, 3}}.Cuts(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5}
	if len(cuts) != 3 {
		t.Fatalf("cuts = %v, want %v (sorted, deduped)", cuts, want)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Errorf("cuts = %v, want %v", cuts, want)
		}
	}
	if _, err := (Manual{Points: []float64{math.NaN()}}).Cuts(nil, nil, 0); err == nil {
		t.Error("NaN cut should fail")
	}
}

func TestMDLPSeparatesClasses(t *testing.T) {
	// Values < 10 are class 0, values ≥ 10 are class 1: MDLP must place a
	// cut near 10 and no spurious ones.
	var values []float64
	var classes []int32
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			values = append(values, rng.Float64()*9)
			classes = append(classes, 0)
		} else {
			values = append(values, 10+rng.Float64()*9)
			classes = append(classes, 1)
		}
	}
	cuts, err := MDLP{}.Cuts(values, classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 {
		t.Fatalf("cuts = %v, want exactly 1", cuts)
	}
	if cuts[0] < 9 || cuts[0] > 10 {
		t.Errorf("cut at %v, want within (9,10)", cuts[0])
	}
}

func TestMDLPNoSignalNoCuts(t *testing.T) {
	// Class independent of value: MDL must refuse to cut.
	var values []float64
	var classes []int32
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		values = append(values, rng.Float64()*100)
		classes = append(classes, int32(rng.Intn(2)))
	}
	cuts, err := MDLP{}.Cuts(values, classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 {
		t.Errorf("noise column got cuts %v, want none", cuts)
	}
}

func TestMDLPThreeWay(t *testing.T) {
	// Three bands, three classes: expect 2 cuts.
	var values []float64
	var classes []int32
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		band := i % 3
		values = append(values, float64(band*20)+rng.Float64()*10)
		classes = append(classes, int32(band))
	}
	cuts, err := MDLP{}.Cuts(values, classes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 2 {
		t.Fatalf("cuts = %v, want 2", cuts)
	}
}

func TestMDLPValidation(t *testing.T) {
	if _, err := (MDLP{}).Cuts([]float64{1}, []int32{0, 1}, 2); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := (MDLP{}).Cuts([]float64{1}, []int32{0}, 0); err == nil {
		t.Error("zero classes should fail")
	}
	// All-missing input: no cuts, no error.
	cuts, err := MDLP{}.Cuts([]float64{math.NaN()}, []int32{0}, 2)
	if err != nil || cuts != nil {
		t.Errorf("NaN-only: cuts=%v err=%v", cuts, err)
	}
}

func TestBinOf(t *testing.T) {
	cuts := []float64{2, 4, 6}
	cases := []struct {
		v    float64
		want int
	}{
		{1, 0}, {2, 0}, {2.5, 1}, {4, 1}, {5, 2}, {6, 2}, {7, 3},
	}
	for _, c := range cases {
		if got := BinOf(cuts, c.v); got != c.want {
			t.Errorf("BinOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if BinOf(nil, 5) != 0 {
		t.Error("no cuts means bin 0")
	}
}

// Property: BinOf is monotone in its argument and always in range.
func TestBinOfMonotone(t *testing.T) {
	cuts := []float64{-3, 0, 1.5, 8}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		ba, bb := BinOf(cuts, a), BinOf(cuts, b)
		return ba <= bb && ba >= 0 && bb <= len(cuts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalLabel(t *testing.T) {
	cuts := []float64{2, 4}
	if l := IntervalLabel(cuts, 0); l != "(-inf,2]" {
		t.Errorf("bin 0 label = %q", l)
	}
	if l := IntervalLabel(cuts, 1); l != "(2,4]" {
		t.Errorf("bin 1 label = %q", l)
	}
	if l := IntervalLabel(cuts, 2); l != "(4,+inf)" {
		t.Errorf("bin 2 label = %q", l)
	}
	if l := IntervalLabel(nil, 0); l != "(-inf,+inf)" {
		t.Errorf("no-cuts label = %q", l)
	}
}

func mixedDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "cat", Kind: dataset.Categorical},
			{Name: "x", Kind: dataset.Continuous},
			{Name: "class", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		x := rng.Float64() * 20
		class := "lo"
		if x > 10 {
			class = "hi"
		}
		cat := "a"
		if i%3 == 0 {
			cat = "b"
		}
		var xs string
		if i%17 == 0 {
			xs = "?"
		} else {
			xs = trimFloat(x)
		}
		if err := b.AddRow([]string{cat, xs, class}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func TestApplyMixedDataset(t *testing.T) {
	ds := mixedDataset(t, 500)
	out, cuts, err := Apply(ds, MDLP{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllCategorical() {
		t.Fatal("Apply must yield a fully categorical dataset")
	}
	if out.NumRows() != ds.NumRows() {
		t.Fatal("Apply changed row count")
	}
	xCuts := cuts["x"]
	if len(xCuts) != 1 || xCuts[0] < 9 || xCuts[0] > 11 {
		t.Errorf("x cuts = %v, want single cut near 10", xCuts)
	}
	// Categorical columns are untouched.
	xi := out.AttrIndex("cat")
	if out.Label(0, xi) != ds.Label(0, xi) {
		t.Error("categorical column changed")
	}
	// Missing continuous values stay missing.
	found := false
	xa := out.AttrIndex("x")
	for r := 0; r < out.NumRows(); r++ {
		if ds.Label(r, xa) == dataset.MissingLabel {
			found = true
			if out.Label(r, xa) != dataset.MissingLabel {
				t.Fatal("missing value gained a bin")
			}
		}
	}
	if !found {
		t.Fatal("test data should contain missing values")
	}
	// Interval dictionary is ordered: labels in bin order.
	labels := out.Column(xa).Dict.Labels()
	if len(labels) != len(xCuts)+1 {
		t.Errorf("got %d interval labels for %d cuts", len(labels), len(xCuts))
	}
}

func TestApplyPreservesOrdinalOrder(t *testing.T) {
	ds := mixedDataset(t, 300)
	out, cuts, err := Apply(ds, EqualWidth{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	xa := out.AttrIndex("x")
	xCuts := cuts["x"]
	// Every row's bin code must equal BinOf(cuts, value).
	for r := 0; r < ds.NumRows(); r++ {
		v := ds.ContValue(r, xa)
		if math.IsNaN(v) {
			continue
		}
		want := int32(BinOf(xCuts, v))
		if got := out.CatCode(r, xa); got != want {
			t.Fatalf("row %d: bin %d, want %d", r, got, want)
		}
	}
}

func TestDiscretizerNames(t *testing.T) {
	for _, d := range []Discretizer{EqualWidth{Bins: 3}, EqualFrequency{Bins: 3}, Manual{}, MDLP{}} {
		if d.Name() == "" {
			t.Errorf("%T has empty name", d)
		}
	}
}

// Property: cuts from any strategy are strictly increasing.
func TestCutsStrictlyIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := make([]float64, 400)
	classes := make([]int32, 400)
	for i := range values {
		values[i] = rng.NormFloat64() * 10
		if values[i] > 2 {
			classes[i] = 1
		}
	}
	for _, d := range []Discretizer{EqualWidth{Bins: 7}, EqualFrequency{Bins: 7}, MDLP{}} {
		cuts, err := d.Cuts(values, classes, 2)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if !sort.Float64sAreSorted(cuts) {
			t.Errorf("%s: cuts not sorted: %v", d.Name(), cuts)
		}
		for i := 1; i < len(cuts); i++ {
			if cuts[i] == cuts[i-1] {
				t.Errorf("%s: duplicate cut %v", d.Name(), cuts[i])
			}
		}
	}
}

// TestSupervisedCutsIgnoreTieOrder: MDLP and ChiMerge sort their
// (value, class) pairs with an unstable sort, so pairs of equal value
// may land in any order. Over shuffled columns with many tied values
// (-0 and +0 among them) and a class that depends on the value, their
// cuts must equal, bit for bit, the cuts of the same pairs put in order
// by sort.SliceStable.
func TestSupervisedCutsIgnoreTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	levels := []float64{math.Copysign(0, -1), 0, -3, 1.5, 2, 7, 7.25, 40}
	cutters := []interface {
		Discretizer
		sortedCuts([]labeledValue, int) []float64
	}{MDLP{}, MDLP{MinIntervalSize: 50}, ChiMerge{}, ChiMerge{MaxInitialIntervals: 3}, ChiMerge{MaxIntervals: 2}}
	cutSome := 0
	for trial := 0; trial < 40; trial++ {
		nc := 2 + rng.Intn(3)
		n := 500 + rng.Intn(2000)
		values := make([]float64, n)
		classes := make([]int32, n)
		var ref []labeledValue
		for i := range values {
			l := rng.Intn(len(levels))
			values[i] = levels[l]
			classes[i] = int32((l + rng.Intn(2)) % nc)
			switch rng.Intn(40) {
			case 0:
				values[i] = math.NaN()
			case 1:
				classes[i] = dataset.Missing
			}
			if !math.IsNaN(values[i]) && classes[i] >= 0 {
				ref = append(ref, labeledValue{values[i], classes[i]})
			}
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].v < ref[j].v })
		for _, d := range cutters {
			got, err := d.Cuts(values, classes, nc)
			if err != nil {
				t.Fatal(err)
			}
			want := d.sortedCuts(ref, nc)
			if len(got) != len(want) {
				t.Fatalf("trial %d %#v: cuts %v, stable-sort reference %v", trial, d, got, want)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d %#v: cuts %v, stable-sort reference %v", trial, d, got, want)
				}
			}
			if len(got) > 0 {
				cutSome++
			}
		}
	}
	if cutSome == 0 {
		t.Fatal("no column was cut: the check compared only empty cut lists")
	}
}
