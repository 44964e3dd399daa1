package rulecube

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"opmap/internal/dataset"
)

// fig1Dataset reproduces the paper's Fig. 1 cube: A1 ∈ {a,b,c,d},
// A2 ∈ {e,f,g}, class ∈ {yes,no}, 1158 records, cell (a,e,yes) = 100 and
// (a,e,no) = 50, cell (a,f,·) = 0.
func fig1Dataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "A1", Kind: dataset.Categorical},
			{Name: "A2", Kind: dataset.Categorical},
			{Name: "C", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.WithDict(0, dataset.DictionaryOf("a", "b", "c", "d"))
	b.WithDict(1, dataset.DictionaryOf("e", "f", "g"))
	b.WithDict(2, dataset.DictionaryOf("yes", "no"))
	add := func(a1, a2, c string, n int) {
		for i := 0; i < n; i++ {
			if err := b.AddRow([]string{a1, a2, c}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("a", "e", "yes", 100)
	add("a", "e", "no", 50)
	add("a", "g", "yes", 8)
	add("b", "e", "yes", 200)
	add("b", "f", "no", 150)
	add("c", "f", "yes", 150)
	add("c", "g", "no", 200)
	add("d", "g", "yes", 150)
	add("d", "e", "no", 150)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildReproducesFig1(t *testing.T) {
	ds := fig1Dataset(t)
	cube, err := Build(ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if cube.NumDims() != 2 || cube.NumClasses() != 2 {
		t.Fatalf("cube shape wrong: dims=%d classes=%d", cube.NumDims(), cube.NumClasses())
	}
	if cube.RuleCount() != 24 {
		t.Errorf("RuleCount = %d, want 24 (Fig. 1: 3×4×2 rules)", cube.RuleCount())
	}
	if cube.Total() != 1158 {
		t.Errorf("Total = %d, want 1158", cube.Total())
	}
	// Cell (a, e, yes) = 100 with confidence 100/150.
	n, err := cube.Count([]int32{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("count(a,e,yes) = %d, want 100", n)
	}
	cf, err := cube.Confidence([]int32{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cf-100.0/150) > 1e-12 {
		t.Errorf("conf(a,e,yes) = %v, want 100/150", cf)
	}
	sup, err := cube.Support([]int32{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sup-100.0/1158) > 1e-12 {
		t.Errorf("sup(a,e,yes) = %v, want 100/1158", sup)
	}
	// Paper: "The rule A1=a, A2=f -> yes has the support of 0 and the
	// confidence of 0."
	cf, err = cube.Confidence([]int32{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cf != 0 {
		t.Errorf("conf(a,f,yes) = %v, want 0", cf)
	}
}

func TestBuildValidation(t *testing.T) {
	ds := fig1Dataset(t)
	if _, err := Build(ds, []int{2}); err == nil {
		t.Error("class as condition dim should fail")
	}
	if _, err := Build(ds, []int{0, 0}); err == nil {
		t.Error("duplicate attribute should fail")
	}
	if _, err := Build(ds, []int{99}); err == nil {
		t.Error("out-of-range attribute should fail")
	}
}

func TestCubeCoordinateValidation(t *testing.T) {
	ds := fig1Dataset(t)
	cube, _ := Build(ds, []int{0, 1})
	if _, err := cube.Count([]int32{0}, 0); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := cube.Count([]int32{9, 0}, 0); err == nil {
		t.Error("out-of-range value should fail")
	} else if !strings.Contains(err.Error(), `"A1"`) {
		// The message must name the offending attribute, not just its
		// positional index.
		t.Errorf("out-of-range error %q does not name attribute A1", err)
	}
	if _, err := cube.Count([]int32{0, 9}, 0); err == nil {
		t.Error("out-of-range value in dim 2 should fail")
	} else if !strings.Contains(err.Error(), `"A2"`) {
		t.Errorf("out-of-range error %q does not name attribute A2", err)
	}
	if _, err := cube.Count([]int32{0, 0}, 9); err == nil {
		t.Error("out-of-range class should fail")
	}
}

func TestSliceMatchesSubPopulation(t *testing.T) {
	ds := fig1Dataset(t)
	cube, _ := Build(ds, []int{0, 1})
	// Slice A1=a: resulting 2-D cube over A2 must match a cube built on
	// the filtered dataset.
	sliced, err := cube.Slice(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := ds.Filter(func(r int) bool { return ds.CatCode(r, 0) == 0 })
	direct, err := Build(sub, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Total() != direct.Total() {
		t.Fatalf("slice total %d != direct %d", sliced.Total(), direct.Total())
	}
	for v := int32(0); int(v) < sliced.Dim(0); v++ {
		for k := int32(0); k < 2; k++ {
			a, _ := sliced.Count([]int32{v}, k)
			b, _ := direct.Count([]int32{v}, k)
			if a != b {
				t.Errorf("cell (%d,%d): slice %d != direct %d", v, k, a, b)
			}
		}
	}
	if _, err := cube.Slice(5, 0); err == nil {
		t.Error("bad position should fail")
	}
	if _, err := cube.Slice(0, 99); err == nil {
		t.Error("bad value should fail")
	}
}

func TestRollupMarginalizes(t *testing.T) {
	ds := fig1Dataset(t)
	cube, _ := Build(ds, []int{0, 1})
	rolled, err := cube.Rollup(1) // marginalize A2 away
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Build(ds, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 4; v++ {
		for k := int32(0); k < 2; k++ {
			a, _ := rolled.Count([]int32{v}, k)
			b, _ := direct.Count([]int32{v}, k)
			if a != b {
				t.Errorf("rollup cell (%d,%d): %d != %d", v, k, a, b)
			}
		}
	}
	if rolled.Total() != cube.Total() {
		t.Error("rollup changed the total")
	}
}

func TestDice(t *testing.T) {
	ds := fig1Dataset(t)
	cube, _ := Build(ds, []int{0, 1})
	diced, err := cube.Dice(0, []int32{0, 3}) // A1 ∈ {a, d}
	if err != nil {
		t.Fatal(err)
	}
	if diced.Dim(0) != 2 {
		t.Fatalf("diced dim = %d, want 2", diced.Dim(0))
	}
	if diced.Dict(0).Label(0) != "a" || diced.Dict(0).Label(1) != "d" {
		t.Error("dice should re-encode values in the given order")
	}
	// Counts preserved under re-encoding.
	n, _ := diced.Count([]int32{0, 0}, 0) // a, e, yes
	if n != 100 {
		t.Errorf("diced count = %d, want 100", n)
	}
	n, _ = diced.Count([]int32{1, 2}, 0) // d, g, yes
	if n != 150 {
		t.Errorf("diced count = %d, want 150", n)
	}
	if _, err := cube.Dice(0, nil); err == nil {
		t.Error("empty dice should fail")
	}
	if _, err := cube.Dice(0, []int32{0, 0}); err == nil {
		t.Error("duplicate dice values should fail")
	}
	if _, err := cube.Dice(0, []int32{99}); err == nil {
		t.Error("bad dice value should fail")
	}
}

func TestConfidenceEquationOne(t *testing.T) {
	// Eq. (1): conf = sup(X,c) / Σ_j sup(X,c_j), verified cell by cell.
	ds := fig1Dataset(t)
	cube, _ := Build(ds, []int{0, 1})
	cube.ForEach(func(values []int32, class int32, count int64) {
		cond, err := cube.CondCount(values)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := cube.Confidence(values, class)
		if err != nil {
			t.Fatal(err)
		}
		if cond == 0 {
			if cf != 0 {
				t.Fatalf("empty cell with nonzero confidence")
			}
			return
		}
		want := float64(count) / float64(cond)
		if math.Abs(cf-want) > 1e-12 {
			t.Fatalf("cell %v class %d: conf %v, want %v", values, class, cf, want)
		}
	})
}

func TestClassMarginalsAndScale(t *testing.T) {
	ds := fig1Dataset(t)
	cube, _ := Build(ds, []int{0})
	marg := cube.ClassMarginals()
	// yes: 100+8+200+150+150 = 608; no: 50+150+200+150 = 550.
	if marg[0] != 608 || marg[1] != 550 {
		t.Errorf("marginals = %v, want [608 550]", marg)
	}
	scale := cube.ScaleFactors()
	if scale[0] != 1 {
		t.Errorf("majority scale = %v, want 1", scale[0])
	}
	if math.Abs(scale[1]-608.0/550) > 1e-12 {
		t.Errorf("minority scale = %v, want 608/550", scale[1])
	}
}

func TestValueMarginals(t *testing.T) {
	ds := fig1Dataset(t)
	cube, _ := Build(ds, []int{0, 1})
	marg, err := cube.ValueMarginals(0)
	if err != nil {
		t.Fatal(err)
	}
	// A1=a: 158, b: 350, c: 350, d: 300.
	want := []int64{158, 350, 350, 300}
	for i, m := range marg {
		if m != want[i] {
			t.Errorf("marginal[%d] = %d, want %d", i, m, want[i])
		}
	}
	if _, err := cube.ValueMarginals(9); err == nil {
		t.Error("bad position should fail")
	}
}

func TestCubeRuleMaterialization(t *testing.T) {
	ds := fig1Dataset(t)
	cube, _ := Build(ds, []int{0, 1})
	r, err := cube.Rule([]int32{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.SupCount != 100 || r.CondCount != 150 || r.Total != 1158 {
		t.Errorf("rule = %+v", r)
	}
	rules, err := cube.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 24 {
		t.Errorf("materialized %d rules, want 24", len(rules))
	}
}

func TestMissingValuesSkipped(t *testing.T) {
	b, _ := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Categorical},
			{Name: "c", Kind: dataset.Categorical},
		},
		ClassIndex: 1,
	})
	b.AddRow([]string{"x", "yes"})
	b.AddRow([]string{"?", "yes"})
	b.AddRow([]string{"x", "?"})
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Build(ds, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if cube.Total() != 1 {
		t.Errorf("total = %d, want 1 (rows with missing dim or class skipped)", cube.Total())
	}
}

func TestStoreRequestsShapes(t *testing.T) {
	ds := fig1Dataset(t)
	cubes, err := buildStore(context.Background(), ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 attrs → 2 one-D cubes + 1 pair cube, the pair's dimensions
	// ascending and never a self-pair.
	if len(cubes) != 3 {
		t.Errorf("CubeCount = %d, want 3", len(cubes))
	}
	for i, want := range [][]int{{0}, {1}, {0, 1}} {
		if got := cubes[i].AttrIndices(); !reflect.DeepEqual(got, want) {
			t.Errorf("cube %d over %v, want %v", i, got, want)
		}
	}
	if _, err := buildStore(context.Background(), ds, []int{2}); err == nil {
		t.Error("class in store attrs should fail")
	}
}

func TestStoreCubesMatchDirectBuild(t *testing.T) {
	ds := fig1Dataset(t)
	cubes, _ := buildStore(context.Background(), ds, nil)
	direct, _ := Build(ds, []int{0, 1})
	got := cubes[2]
	direct.ForEach(func(values []int32, class int32, count int64) {
		n, err := got.Count(values, class)
		if err != nil {
			t.Fatal(err)
		}
		if n != count {
			t.Fatalf("store cube cell %v/%d = %d, direct = %d", values, class, n, count)
		}
	})
}

// Property: for any cube cell, 0 ≤ confidence ≤ 1 and the class-summed
// counts equal the condition count.
func TestCubeInvariants(t *testing.T) {
	ds := fig1Dataset(t)
	cube, _ := Build(ds, []int{0, 1})
	f := func(v1u, v2u, cu uint8) bool {
		v1 := int32(v1u % 4)
		v2 := int32(v2u % 3)
		c := int32(cu % 2)
		cf, err := cube.Confidence([]int32{v1, v2}, c)
		if err != nil || cf < 0 || cf > 1 {
			return false
		}
		var sum int64
		for k := int32(0); k < 2; k++ {
			n, err := cube.Count([]int32{v1, v2}, k)
			if err != nil {
				return false
			}
			sum += n
		}
		cond, err := cube.CondCount([]int32{v1, v2})
		return err == nil && sum == cond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: slicing on every value of a dimension partitions the total.
func TestSlicePartitionsTotal(t *testing.T) {
	ds := fig1Dataset(t)
	cube, _ := Build(ds, []int{0, 1})
	var sum int64
	for v := int32(0); v < 4; v++ {
		s, err := cube.Slice(0, v)
		if err != nil {
			t.Fatal(err)
		}
		sum += s.Total()
	}
	if sum != cube.Total() {
		t.Errorf("slices sum to %d, cube total %d", sum, cube.Total())
	}
}

// TestStoreStats sizes the Fig. 1 store: the quantified form of the
// paper's combinatorial-explosion concern (Section III.B).
func TestStoreStats(t *testing.T) {
	ds := fig1Dataset(t)
	cubes, err := buildStore(context.Background(), ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cells, bytes, maxCells int64
	for _, c := range cubes {
		cells += c.RuleCount()
		bytes += c.SizeBytes()
		maxCells = max(maxCells, c.RuleCount())
	}
	if len(cubes) != 3 {
		t.Errorf("cubes = %d, want 3", len(cubes))
	}
	// Cells: A1 cube 4·2=8, A2 cube 3·2=6, pair 4·3·2=24 → 38.
	if cells != 38 {
		t.Errorf("cells = %d, want 38", cells)
	}
	if bytes != 38*8 {
		t.Errorf("bytes = %d", bytes)
	}
	if maxCells != 24 {
		t.Errorf("max cube = %d, want 24 (Fig. 1's cube)", maxCells)
	}
}

func TestRuleCountSaturates(t *testing.T) {
	// A cube whose declared dims multiply past the int64 range must
	// report the MaxInt64 ceiling, never a wrapped-negative byte budget
	// (the engine LRU accounts cache size in SizeBytes).
	c := &Cube{dims: []int{1 << 31, 1 << 31, 1 << 31}, numClasses: 4}
	if got := c.RuleCount(); got != math.MaxInt64 {
		t.Fatalf("RuleCount = %d, want MaxInt64", got)
	}
	if got := c.SizeBytes(); got != math.MaxInt64 {
		t.Fatalf("SizeBytes = %d, want MaxInt64", got)
	}
	// Near the boundary: 2^31 × 2^30 × 2 = 2^62 cells fits an int64,
	// but the 8-bytes-per-cell step would overflow — SizeBytes must
	// still saturate while RuleCount stays exact and positive.
	near := &Cube{dims: []int{1 << 31, 1 << 30}, numClasses: 2}
	if got := near.RuleCount(); got != 1<<62 {
		t.Fatalf("RuleCount = %d, want 2^62", got)
	}
	if got := near.SizeBytes(); got != math.MaxInt64 {
		t.Fatalf("SizeBytes = %d, want MaxInt64 (8× cell count overflows)", got)
	}
}
