package compare

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/workload"
)

func TestPermutationTestPlantedVsNoise(t *testing.T) {
	_, gt, ds := buildCaseStudy(t, 40000, 1)
	in := inputFor(t, ds, gt)

	planted, err := PermutationTest(ds, in, ds.AttrIndex(gt.DistinguishingAttr), 100, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if planted.PValue > 0.05 {
		t.Errorf("planted attribute p = %v, want ≤ 0.05", planted.PValue)
	}
	if planted.Observed <= planted.NullQ95 {
		t.Errorf("observed M %v should exceed the null 95th percentile %v", planted.Observed, planted.NullQ95)
	}

	noise, err := PermutationTest(ds, in, ds.AttrIndex(gt.NoiseAttrs[0]), 100, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if noise.PValue < 0.2 {
		t.Errorf("noise attribute p = %v, want clearly insignificant", noise.PValue)
	}
}

func TestPermutationTestValidation(t *testing.T) {
	_, gt, ds := buildCaseStudy(t, 5000, 1)
	in := inputFor(t, ds, gt)
	if _, err := PermutationTest(ds, in, in.Attr, 10, 1, Options{}); err == nil {
		t.Error("comparison attribute as candidate should fail")
	}
	if _, err := PermutationTest(ds, in, ds.ClassIndex(), 10, 1, Options{}); err == nil {
		t.Error("class as candidate should fail")
	}
	if _, err := PermutationTest(ds, in, 99, 10, 1, Options{}); err == nil {
		t.Error("out-of-range candidate should fail")
	}
}

func TestPermutationTestDeterministic(t *testing.T) {
	_, gt, ds := buildCaseStudy(t, 10000, 1)
	in := inputFor(t, ds, gt)
	attr := ds.AttrIndex(gt.DistinguishingAttr)
	a, err := PermutationTest(ds, in, attr, 50, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PermutationTest(ds, in, attr, 50, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.PValue != b.PValue || a.NullMean != b.NullMean {
		t.Error("same seed must reproduce the test exactly")
	}
	c, err := PermutationTest(ds, in, attr, 50, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NullMean == c.NullMean {
		t.Log("different seeds gave identical null means (possible but unlikely)")
	}
}

func TestPermutationTestDefaultRounds(t *testing.T) {
	_, gt, ds := buildCaseStudy(t, 5000, 0)
	in := inputFor(t, ds, gt)
	res, err := PermutationTest(ds, in, ds.AttrIndex(gt.ProportionalAttr), 0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 150 {
		t.Errorf("default rounds = %d, want ≈200 (some may be skipped)", res.Rounds)
	}
	// PValue is always in (0, 1].
	if res.PValue <= 0 || res.PValue > 1 {
		t.Errorf("p = %v", res.PValue)
	}
}

// TestPermutationPoolReproducesObserved: the pool in its observed order
// (D1's rows first, each side in row order) must score exactly the
// observed M, with CI on and off, so the null distribution is drawn on
// the population the observed score counts. Rows with a missing class
// are in neither; a row with a missing candidate value counts in its
// side's total and in no value's counts. It runs on missingClassTable,
// on a call log with 20% of its noise values missing, and on random
// small tables with missing values and classes.
func TestPermutationPoolReproducesObserved(t *testing.T) {
	type testCase struct {
		name string
		ds   *dataset.Dataset
		in   Input
	}
	mc := missingClassTable(t)
	drop, _ := mc.ClassDict().Lookup("drop")
	cases := []testCase{{"missingClassTable", mc, Input{Attr: 0, V1: 0, V2: 1, Class: drop}}}
	gappy, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 7, Records: 4000, NumPhones: 4, NoiseAttrs: 3, MissingRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, testCase{"gappy call log", gappy, inputFor(t, gappy, gt)})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		ds := randomGappyTable(t, rng, 2, 0)
		cases = append(cases, testCase{fmt.Sprintf("random table %d", i), ds, Input{Attr: 0, V1: 0, V2: 1, Class: 0}})
	}
	checked := make(map[string]int)
	for _, tc := range cases {
		for attr := 0; attr < tc.ds.NumAttrs(); attr++ {
			if attr == tc.in.Attr || attr == tc.ds.ClassIndex() {
				continue
			}
			for _, opts := range []Options{{DisableCI: true}, {}} {
				obs, err := Scan(context.Background(), tc.ds, nil, tc.in, withAttrs(opts, attr))
				if err != nil {
					continue
				}
				score, _, ok := obs.Find(tc.ds.Attr(attr).Name)
				if !ok {
					continue
				}
				pool, n1, err := collectPool(context.Background(), tc.ds, tc.in, attr, obs.Swapped)
				if err != nil {
					t.Fatal(err)
				}
				arranged, err := observedOrder(tc.ds, tc.in, attr, obs.Swapped, pool, n1)
				if err != nil {
					t.Fatalf("%s, attribute %s: %v", tc.name, tc.ds.Attr(attr).Name, err)
				}
				m, valid := poolScore(arranged, n1, tc.ds.Cardinality(attr), opts)
				if !valid || math.Float64bits(m) != math.Float64bits(score.Score) {
					t.Errorf("%s, attribute %s, CI %v: observed pool scores %v (valid %v), observed M %v",
						tc.name, tc.ds.Attr(attr).Name, !opts.DisableCI, m, valid, score.Score)
				}
				checked[tc.name]++
			}
		}
	}
	if checked["missingClassTable"] != 4 || checked["gappy call log"] == 0 || len(checked) < 20 {
		t.Errorf("too few comparisons scored: %v", checked)
	}
}

// observedOrder checks that pool holds, in row order, one member per row
// with a present class and split value V1 or V2 (swapped as observed),
// with that row's candidate value and class membership, and that n1 of
// them are D1's. It returns the pool arranged as observed: D1's members
// first.
func observedOrder(ds *dataset.Dataset, in Input, attr int, swapped bool, pool []member, n1 int) ([]member, error) {
	v1, v2 := in.V1, in.V2
	if swapped {
		v1, v2 = v2, v1
	}
	split, cand, cls := &ds.Column(in.Attr).Codes, &ds.Column(attr).Codes, &ds.Column(ds.ClassIndex()).Codes
	var d1, d2 []member
	for r := 0; r < ds.NumRows(); r++ {
		v := split.At(r)
		if cls.At(r) == dataset.Missing || (v != v1 && v != v2) {
			continue
		}
		k := len(d1) + len(d2)
		want := member{cand.At(r), cls.At(r) == in.Class}
		if k >= len(pool) || pool[k] != want {
			return nil, fmt.Errorf("pool member %d is not row %d's %+v", k, r, want)
		}
		if v == v1 {
			d1 = append(d1, want)
		} else {
			d2 = append(d2, want)
		}
	}
	if len(d1)+len(d2) != len(pool) || len(d1) != n1 {
		return nil, fmt.Errorf("pool has %d members, %d in D1; the rows give %d, %d in D1", len(pool), n1, len(d1)+len(d2), len(d1))
	}
	return append(d1, d2...), nil
}

// randomGappyTable draws a small table: the split attribute a0 with two
// values, cands candidates of 2–4 values and a class of 2–3, every
// column missing at 15% of the rows. Each candidate's dictionary holds
// spare more labels, which no row takes.
func randomGappyTable(t *testing.T, rng *rand.Rand, cands, spare int) *dataset.Dataset {
	t.Helper()
	cards := []int{2}
	for i := 0; i < cands; i++ {
		cards = append(cards, 2+rng.Intn(3))
	}
	cards = append(cards, 2+rng.Intn(2))
	schema := dataset.Schema{ClassIndex: len(cards) - 1}
	for i := range cards {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical})
	}
	b, err := dataset.NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i, card := range cards {
		d := dataset.NewDictionary()
		if i > 0 && i < len(cards)-1 {
			card += spare
		}
		for v := 0; v < card; v++ {
			d.Code(fmt.Sprintf("v%d", v))
		}
		b.WithDict(i, d)
	}
	codes := make([]int32, len(cards))
	for r, rows := 0, 40+rng.Intn(160); r < rows; r++ {
		for i, card := range cards {
			codes[i] = int32(rng.Intn(card))
			if rng.Float64() < 0.15 {
				codes[i] = dataset.Missing
			}
		}
		if err := b.AddCodedRow(codes, nil); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
