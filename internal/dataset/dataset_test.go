package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func twoAttrSchema() Schema {
	return Schema{
		Attrs: []Attribute{
			{Name: "color", Kind: Categorical},
			{Name: "size", Kind: Continuous},
			{Name: "class", Kind: Categorical},
		},
		ClassIndex: 2,
	}
}

func buildSmall(t *testing.T) *Dataset {
	t.Helper()
	b, err := NewBuilder(twoAttrSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"red", "1.5", "yes"},
		{"blue", "2.5", "no"},
		{"red", "3.5", "yes"},
		{"green", "?", "no"},
		{"?", "4.5", "yes"},
	}
	for _, r := range rows {
		if err := b.AddRow(r); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		name   string
		schema Schema
		ok     bool
	}{
		{"valid", twoAttrSchema(), true},
		{"empty", Schema{}, false},
		{"class out of range", Schema{Attrs: []Attribute{{Name: "a", Kind: Categorical}}, ClassIndex: 3}, false},
		{"continuous class", Schema{Attrs: []Attribute{{Name: "a", Kind: Continuous}}, ClassIndex: 0}, false},
		{"duplicate name", Schema{Attrs: []Attribute{{Name: "a", Kind: Categorical}, {Name: "a", Kind: Categorical}}, ClassIndex: 0}, false},
		{"empty name", Schema{Attrs: []Attribute{{Name: "", Kind: Categorical}}, ClassIndex: 0}, false},
	}
	for _, c := range cases {
		err := c.schema.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	a := d.Code("alpha")
	b := d.Code("beta")
	if a == b {
		t.Fatal("distinct labels share a code")
	}
	if d.Code("alpha") != a {
		t.Error("re-coding a label changed its code")
	}
	if d.Label(a) != "alpha" || d.Label(b) != "beta" {
		t.Error("label lookup broken")
	}
	if d.Label(Missing) != MissingLabel {
		t.Error("missing code should map to MissingLabel")
	}
	if d.Label(99) != MissingLabel {
		t.Error("out-of-range code should map to MissingLabel")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup must not register")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestDictionaryClone(t *testing.T) {
	d := DictionaryOf("x", "y")
	c := d.Clone()
	c.Code("z")
	if d.Len() != 2 {
		t.Error("clone mutation leaked into the original")
	}
	if c.Len() != 3 {
		t.Error("clone did not accept new label")
	}
}

func TestBuilderBasics(t *testing.T) {
	ds := buildSmall(t)
	if ds.NumRows() != 5 {
		t.Fatalf("NumRows = %d", ds.NumRows())
	}
	if ds.NumAttrs() != 3 {
		t.Fatalf("NumAttrs = %d", ds.NumAttrs())
	}
	if ds.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d", ds.NumClasses())
	}
	if ds.Label(0, 0) != "red" || ds.Label(1, 0) != "blue" {
		t.Error("categorical labels wrong")
	}
	if ds.Label(3, 1) != MissingLabel {
		t.Error("missing continuous should render as ?")
	}
	if ds.Label(4, 0) != MissingLabel {
		t.Error("missing categorical should render as ?")
	}
	if ds.ContValue(0, 1) != 1.5 {
		t.Error("continuous value wrong")
	}
	if !math.IsNaN(ds.ContValue(3, 1)) {
		t.Error("missing continuous should be NaN")
	}
	if ds.AllCategorical() {
		t.Error("dataset has a continuous column")
	}
}

func TestBuilderRowWidthError(t *testing.T) {
	b, _ := NewBuilder(twoAttrSchema())
	if err := b.AddRow([]string{"red"}); err == nil {
		t.Error("short row should fail")
	}
	if _, err := b.Build(); err == nil {
		t.Error("Build after error should fail")
	}
}

func TestBuilderBadNumber(t *testing.T) {
	b, _ := NewBuilder(twoAttrSchema())
	if err := b.AddRow([]string{"red", "not-a-number", "yes"}); err == nil {
		t.Error("unparseable number should fail")
	}
}

func TestCatCodePanicsOnContinuous(t *testing.T) {
	ds := buildSmall(t)
	defer func() {
		if recover() == nil {
			t.Error("CatCode on continuous attr should panic")
		}
	}()
	ds.CatCode(0, 1)
}

func TestContValuePanicsOnCategorical(t *testing.T) {
	ds := buildSmall(t)
	defer func() {
		if recover() == nil {
			t.Error("ContValue on categorical attr should panic")
		}
	}()
	ds.ContValue(0, 0)
}

func TestClassDistribution(t *testing.T) {
	ds := buildSmall(t)
	dist := ds.ClassDistribution()
	// "yes" coded first (appears first), 3 of them; "no" 2.
	if dist[0] != 3 || dist[1] != 2 {
		t.Errorf("class distribution = %v, want [3 2]", dist)
	}
}

func TestValueCounts(t *testing.T) {
	ds := buildSmall(t)
	counts, err := ds.ValueCounts(0)
	if err != nil {
		t.Fatal(err)
	}
	// red=2, blue=1, green=1; one missing not counted.
	var total int64
	for _, n := range counts {
		total += n
	}
	if total != 4 {
		t.Errorf("counted %d values, want 4 (missing excluded)", total)
	}
	if _, err := ds.ValueCounts(1); err == nil {
		t.Error("ValueCounts on continuous attr should fail")
	}
}

func TestFilterAndGather(t *testing.T) {
	ds := buildSmall(t)
	redOnly := ds.Filter(func(r int) bool { return ds.Label(r, 0) == "red" })
	if redOnly.NumRows() != 2 {
		t.Fatalf("filter kept %d rows, want 2", redOnly.NumRows())
	}
	// Dictionaries are shared: codes mean the same thing.
	if redOnly.Label(0, 0) != "red" {
		t.Error("filtered labels corrupted")
	}
	// Gather with repeats.
	g := ds.Gather([]int{0, 0, 0})
	if g.NumRows() != 3 || g.Label(2, 0) != "red" {
		t.Error("gather with repeats broken")
	}
	// Empty gather.
	if e := ds.Gather(nil); e.NumRows() != 0 {
		t.Error("empty gather should yield zero rows")
	}
}

func TestDuplicateMatchesPaperProtocol(t *testing.T) {
	ds := buildSmall(t)
	d := ds.Duplicate(3)
	if d.NumRows() != 15 {
		t.Fatalf("Duplicate(3) rows = %d, want 15", d.NumRows())
	}
	// Class distribution scales exactly.
	orig := ds.ClassDistribution()
	dup := d.ClassDistribution()
	for c := range orig {
		if dup[c] != 3*orig[c] {
			t.Errorf("class %d: %d, want %d", c, dup[c], 3*orig[c])
		}
	}
	if ds.Duplicate(0).NumRows() != ds.NumRows() {
		t.Error("Duplicate(<1) should behave as factor 1")
	}
}

func TestSelectAttrs(t *testing.T) {
	ds := buildSmall(t)
	sub, err := ds.SelectAttrs([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumAttrs() != 2 { // color + class auto-retained
		t.Fatalf("NumAttrs = %d, want 2", sub.NumAttrs())
	}
	if sub.ClassIndex() != 1 {
		t.Errorf("class index = %d, want 1", sub.ClassIndex())
	}
	if sub.Attr(0).Name != "color" {
		t.Error("selected attribute wrong")
	}
	if _, err := ds.SelectAttrs([]int{9}); err == nil {
		t.Error("out-of-range select should fail")
	}
	// Selecting including the class keeps position.
	sub2, err := ds.SelectAttrs([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub2.ClassIndex() != 0 {
		t.Errorf("class index = %d, want 0", sub2.ClassIndex())
	}
}

func TestAddCodedRow(t *testing.T) {
	schema := Schema{
		Attrs: []Attribute{
			{Name: "a", Kind: Categorical},
			{Name: "x", Kind: Continuous},
			{Name: "c", Kind: Categorical},
		},
		ClassIndex: 2,
	}
	b, err := NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	b.WithDict(0, DictionaryOf("p", "q"))
	b.WithDict(2, DictionaryOf("k0", "k1"))
	if err := b.AddCodedRow([]int32{1, 0, 0}, []float64{0, 3.25, 0}); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Label(0, 0) != "q" || ds.ContValue(0, 1) != 3.25 || ds.Label(0, 2) != "k0" {
		t.Error("coded row decoded wrong")
	}
}

func TestBuildRejectsCodeBeyondDict(t *testing.T) {
	schema := Schema{
		Attrs:      []Attribute{{Name: "a", Kind: Categorical}, {Name: "c", Kind: Categorical}},
		ClassIndex: 1,
	}
	b, _ := NewBuilder(schema)
	b.WithDict(0, DictionaryOf("only"))
	b.WithDict(1, DictionaryOf("k"))
	if err := b.AddCodedRow([]int32{5, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Error("Build should reject codes beyond the dictionary")
	}
}

func TestWithDictErrors(t *testing.T) {
	b, _ := NewBuilder(twoAttrSchema())
	b.WithDict(1, NewDictionary()) // continuous: invalid
	if err := b.AddRow([]string{"red", "1", "yes"}); err == nil {
		t.Error("builder should be poisoned after bad WithDict")
	}
}

// Property: Gather(perm) preserves multiset of class codes.
func TestGatherPreservesClassMultiset(t *testing.T) {
	ds := buildSmall(t)
	f := func(seed uint8) bool {
		// Build an arbitrary index list within range.
		idx := make([]int, 0, 8)
		x := int(seed)
		for i := 0; i < 8; i++ {
			idx = append(idx, (x+i*3)%ds.NumRows())
		}
		g := ds.Gather(idx)
		want := make(map[int32]int)
		for _, r := range idx {
			want[ds.ClassCode(r)]++
		}
		got := make(map[int32]int)
		for r := 0; r < g.NumRows(); r++ {
			got[g.ClassCode(r)]++
		}
		if len(want) != len(got) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if Categorical.String() != "categorical" || Continuous.String() != "continuous" {
		t.Error("Kind.String broken")
	}
	if Kind(7).String() == "" {
		t.Error("unknown kind should still render")
	}
}
