package discretize

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/testutil"
)

// applyReference is the copy-based discretization Apply replaced: it
// rebuilds the whole dataset row by row through a Builder, cloning
// every categorical dictionary. It is the oracle for the column-wise,
// column-sharing Apply.
func applyReference(ds *dataset.Dataset, d Discretizer) (*dataset.Dataset, map[string][]float64, error) {
	schema := ds.Schema()
	outAttrs := make([]dataset.Attribute, len(schema.Attrs))
	for i, a := range schema.Attrs {
		outAttrs[i] = dataset.Attribute{Name: a.Name, Kind: dataset.Categorical}
	}
	b, err := dataset.NewBuilder(dataset.Schema{Attrs: outAttrs, ClassIndex: schema.ClassIndex})
	if err != nil {
		return nil, nil, err
	}

	classes := make([]int32, ds.NumRows())
	for r := range classes {
		classes[r] = ds.ClassCode(r)
	}

	cutsByAttr := make(map[string][]float64)
	colCuts := make([][]float64, ds.NumAttrs())
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.Column(i)
		if col.Kind == dataset.Categorical {
			b.WithDict(i, col.Dict.Clone())
			continue
		}
		cuts, err := d.Cuts(col.Values, classes, ds.NumClasses())
		if err != nil {
			return nil, nil, fmt.Errorf("discretize: attribute %q: %w", schema.Attrs[i].Name, err)
		}
		colCuts[i] = cuts
		cutsByAttr[schema.Attrs[i].Name] = cuts
		dict := dataset.NewDictionary()
		for bin := 0; bin <= len(cuts); bin++ {
			dict.Code(IntervalLabel(cuts, bin))
		}
		b.WithDict(i, dict)
	}

	codes := make([]int32, ds.NumAttrs())
	for r := 0; r < ds.NumRows(); r++ {
		for i := 0; i < ds.NumAttrs(); i++ {
			col := ds.Column(i)
			if col.Kind == dataset.Categorical {
				codes[i] = col.Codes.At(r)
				continue
			}
			v := col.Values[r]
			if math.IsNaN(v) {
				codes[i] = dataset.Missing
				continue
			}
			codes[i] = int32(BinOf(colCuts[i], v))
		}
		if err := b.AddCodedRow(codes, nil); err != nil {
			return nil, nil, err
		}
	}
	out, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return out, cutsByAttr, nil
}

// randomMixed builds a seeded dataset of rows rows: nCat categorical
// and nCont continuous attributes plus a 3-class outcome, with missing
// values in every attribute but the class. Continuous values repeat
// often enough for supervised cut points to exist.
func randomMixed(t testing.TB, seed int64, rows, nCat, nCont int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var attrs []dataset.Attribute
	for i := 0; i < nCat; i++ {
		attrs = append(attrs, dataset.Attribute{Name: fmt.Sprintf("cat%d", i), Kind: dataset.Categorical})
	}
	for i := 0; i < nCont; i++ {
		attrs = append(attrs, dataset.Attribute{Name: fmt.Sprintf("num%d", i), Kind: dataset.Continuous})
	}
	attrs = append(attrs, dataset.Attribute{Name: "class", Kind: dataset.Categorical})
	b, err := dataset.NewBuilder(dataset.Schema{Attrs: attrs, ClassIndex: len(attrs) - 1})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]string, len(attrs))
	for r := 0; r < rows; r++ {
		class := rng.Intn(3)
		for i := range attrs[:len(attrs)-1] {
			switch {
			case rng.Intn(10) == 0:
				row[i] = dataset.MissingLabel
			case attrs[i].Kind == dataset.Categorical:
				row[i] = fmt.Sprintf("v%d", rng.Intn(2+i))
			default:
				row[i] = strconv.FormatFloat(float64(rng.Intn(40)+10*class)/4, 'g', -1, 64)
			}
		}
		row[len(row)-1] = fmt.Sprintf("k%d", class)
		if err := b.AddRow(row); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// checkApplyMatchesReference runs Apply and the reference over ds and
// requires equal schemas, codes, dictionary labels and cuts, and that
// Apply's categorical columns are ds's own storage.
func checkApplyMatchesReference(t *testing.T, ds *dataset.Dataset, d Discretizer) {
	t.Helper()
	want, wantCuts, wantErr := applyReference(ds, d)
	got, gotCuts, gotErr := Apply(ds, d)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: Apply err %v, reference err %v", d.Name(), gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(gotCuts, wantCuts) {
		t.Fatalf("%s: cuts %v, reference %v", d.Name(), gotCuts, wantCuts)
	}
	if !reflect.DeepEqual(got.Schema(), want.Schema()) || got.NumRows() != want.NumRows() {
		t.Fatalf("%s: schema %+v × %d rows, reference %+v × %d", d.Name(), got.Schema(), got.NumRows(), want.Schema(), want.NumRows())
	}
	for i := 0; i < ds.NumAttrs(); i++ {
		g, w := got.Column(i), want.Column(i)
		if !slices.Equal(g.Codes.Int32s(), w.Codes.Int32s()) {
			t.Errorf("%s: attribute %s codes differ from the reference", d.Name(), ds.Attr(i).Name)
		}
		if !reflect.DeepEqual(g.Dict.Labels(), w.Dict.Labels()) {
			t.Errorf("%s: attribute %s labels %v, reference %v", d.Name(), ds.Attr(i).Name, g.Dict.Labels(), w.Dict.Labels())
		}
		if src := ds.Column(i); src.Kind == dataset.Categorical {
			if g.Dict != src.Dict || testutil.CodesData(&g.Codes) != testutil.CodesData(&src.Codes) {
				t.Errorf("%s: categorical attribute %s was copied, not shared", d.Name(), ds.Attr(i).Name)
			}
		}
	}
}

// TestApplyMatchesReference: the column-wise Apply gives the copy-based
// reference's codes, labels and cuts for every discretizer, over
// mixed schemas with missing values, all-categorical and
// all-continuous schemas, and manual cuts.
func TestApplyMatchesReference(t *testing.T) {
	discretizers := []Discretizer{
		MDLP{},
		EqualWidth{Bins: 4},
		EqualFrequency{Bins: 5},
		ChiMerge{MaxIntervals: 4},
		Manual{Points: []float64{7.5, 2.25, 5}},
		Manual{},
	}
	for _, tc := range []struct {
		name        string
		nCat, nCont int
	}{
		{"mixed", 3, 2},
		{"all-categorical", 4, 0},
		{"all-continuous", 0, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := randomMixed(t, 11, 600, tc.nCat, tc.nCont)
			for _, d := range discretizers {
				checkApplyMatchesReference(t, ds, d)
			}
		})
	}
	t.Run("empty", func(t *testing.T) {
		checkApplyMatchesReference(t, randomMixed(t, 3, 0, 2, 2), MDLP{})
	})
}

// FuzzApplyMatchesReference drives random schemas, row counts and bin
// counts through both implementations.
func FuzzApplyMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(2), uint8(2), uint8(4))
	f.Add(int64(2), uint16(1), uint8(0), uint8(1), uint8(1))
	f.Add(int64(3), uint16(50), uint8(3), uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, nCat, nCont, bins uint8) {
		ds := randomMixed(t, seed, int(rows%2000), int(nCat%5), int(nCont%5))
		b := int(bins%12) + 1
		for _, d := range []Discretizer{MDLP{}, EqualWidth{Bins: b}, EqualFrequency{Bins: b}, Manual{Points: []float64{float64(b) / 2}}} {
			checkApplyMatchesReference(t, ds, d)
		}
	})
}
