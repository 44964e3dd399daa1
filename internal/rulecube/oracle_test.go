package rulecube

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"opmap/internal/dataset"
)

// Differential tests: cube cells against a brute-force recount of
// random datasets. Any systematic counting bug (offset arithmetic,
// missing-value handling, class indexing) surfaces here.

// randomDataset builds a random categorical dataset with occasional
// missing values.
func randomDataset(t *testing.T, seed int64, rows, attrs, card, classes int, missingRate float64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := dataset.Schema{ClassIndex: attrs}
	for i := 0; i < attrs; i++ {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical})
	}
	schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: "class", Kind: dataset.Categorical})
	b, err := dataset.NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < attrs; i++ {
		d := dataset.NewDictionary()
		for v := 0; v < card; v++ {
			d.Code(fmt.Sprintf("v%d", v))
		}
		b.WithDict(i, d)
	}
	cd := dataset.NewDictionary()
	for c := 0; c < classes; c++ {
		cd.Code(fmt.Sprintf("c%d", c))
	}
	b.WithDict(attrs, cd)

	codes := make([]int32, attrs+1)
	for r := 0; r < rows; r++ {
		for i := 0; i < attrs; i++ {
			if rng.Float64() < missingRate {
				codes[i] = dataset.Missing
			} else {
				codes[i] = int32(rng.Intn(card))
			}
		}
		codes[attrs] = int32(rng.Intn(classes))
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

func TestCubeMatchesBruteForce(t *testing.T) {
	for trial := int64(0); trial < 5; trial++ {
		ds := randomDataset(t, trial, 3000, 4, 5, 3, 0.05)
		// Random pair of attributes.
		rng := rand.New(rand.NewSource(trial + 100))
		a := rng.Intn(4)
		b := (a + 1 + rng.Intn(3)) % 4
		if a == b {
			b = (b + 1) % 4
		}
		cube, err := Build(ds, []int{a, b})
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force recount.
		card := 5
		classes := 3
		want := make(map[[3]int32]int64)
		var total int64
		for r := 0; r < ds.NumRows(); r++ {
			va := ds.CatCode(r, a)
			vb := ds.CatCode(r, b)
			c := ds.ClassCode(r)
			if va < 0 || vb < 0 || c < 0 {
				continue
			}
			want[[3]int32{va, vb, c}]++
			total++
		}
		if cube.Total() != total {
			t.Fatalf("trial %d: total %d, brute force %d", trial, cube.Total(), total)
		}
		for va := int32(0); int(va) < card; va++ {
			for vb := int32(0); int(vb) < card; vb++ {
				for c := int32(0); int(c) < classes; c++ {
					got, err := cube.Count([]int32{va, vb}, c)
					if err != nil {
						t.Fatal(err)
					}
					if got != want[[3]int32{va, vb, c}] {
						t.Fatalf("trial %d: cell (%d,%d,%d): cube %d, brute force %d",
							trial, va, vb, c, got, want[[3]int32{va, vb, c}])
					}
				}
			}
		}
	}
}

// TestStoreRequestsMatchBruteForce checks every 1-D and pair cube of
// stores built over a random dataset with missing values and missing
// classes against the brute-force recount: the full store and an
// attribute subset.
func TestStoreRequestsMatchBruteForce(t *testing.T) {
	ds := randomDatasetMissingClass(t, 9, 3000, 6, 4, 3, 0.08)
	for _, subset := range [][]int{nil, {4, 1, 3}} {
		cubes, err := buildStore(context.Background(), ds, subset)
		if err != nil {
			t.Fatal(err)
		}
		attrs, _ := NormalizeAttrs(ds, subset)
		want := len(attrs) + len(attrs)*(len(attrs)-1)/2
		if len(cubes) != want {
			t.Errorf("%v: %d cubes, want %d", subset, len(cubes), want)
		}
		for _, c := range cubes {
			checkBruteForce(t, ds, c.AttrIndices(), c, fmt.Sprintf("%v: cube %v", subset, c.AttrIndices()))
		}
	}
}

func TestSliceDiceRollupComposition(t *testing.T) {
	ds := randomDataset(t, 9, 4000, 3, 4, 2, 0.03)
	cube, err := Build(ds, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Slice → rollup must equal building directly on the filtered data.
	sliced, err := cube.Slice(1, 2) // a1 = v2
	if err != nil {
		t.Fatal(err)
	}
	rolled, err := sliced.Rollup(1) // marginalize a2 away → cube over a0
	if err != nil {
		t.Fatal(err)
	}
	sub := ds.Filter(func(r int) bool {
		// The 3-dim cube skipped rows with ANY missing dim; mirror that.
		return ds.CatCode(r, 0) >= 0 && ds.CatCode(r, 1) == 2 && ds.CatCode(r, 2) >= 0
	})
	direct, err := Build(sub, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < direct.Dim(0); v++ {
		for c := int32(0); c < 2; c++ {
			a, _ := rolled.Count([]int32{v}, c)
			b, _ := direct.Count([]int32{v}, c)
			if a != b {
				t.Fatalf("composition cell (%d,%d): %d != %d", v, c, a, b)
			}
		}
	}
	// Dice to all values must preserve every cell.
	all := []int32{0, 1, 2, 3}
	diced, err := cube.Dice(0, all)
	if err != nil {
		t.Fatal(err)
	}
	if diced.Total() != cube.Total() {
		t.Fatal("identity dice changed the total")
	}
}
