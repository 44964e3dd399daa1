package rulecube

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/testutil"
)

// Differential tests for k ≥ 3 cubes: every cell of a 3-D/4-D cube —
// built directly, batch-built, composed through slice/dice/rollup, or
// merged from row shards — against a brute-force recount of the rows.

// naiveCells recounts the cube over attrs straight off the dataset:
// one map entry per nonzero cell, keyed by the printed coordinate
// vector plus class. Rows with the class or any dimension missing are
// skipped.
func naiveCells(ds *dataset.Dataset, attrs []int) (cells map[string]int64, total int64) {
	cells = make(map[string]int64)
	coord := make([]int32, len(attrs))
	for r := 0; r < ds.NumRows(); r++ {
		c := ds.ClassCode(r)
		if c < 0 {
			continue
		}
		ok := true
		for i, a := range attrs {
			v := ds.CatCode(r, a)
			if v < 0 {
				ok = false
				break
			}
			coord[i] = v
		}
		if !ok {
			continue
		}
		cells[fmt.Sprint(coord, c)]++
		total++
	}
	return cells, total
}

// checkBruteForce fails unless cube is the cube over attrs in that
// dimension order — one slot per dictionary code, one per class — with
// every cell equal to the brute-force recount.
func checkBruteForce(t *testing.T, ds *dataset.Dataset, attrs []int, cube *Cube, what string) {
	t.Helper()
	if !reflect.DeepEqual(cube.AttrIndices(), attrs) {
		t.Fatalf("%s: dimensions %v, want %v", what, cube.AttrIndices(), attrs)
	}
	for i, a := range attrs {
		want := ds.Cardinality(a)
		if want == 0 {
			want = 1
		}
		if cube.Dim(i) != want || cube.AttrNames()[i] != ds.Attr(a).Name {
			t.Fatalf("%s: dimension %d is %q of size %d, want %q of size %d", what, i, cube.AttrNames()[i], cube.Dim(i), ds.Attr(a).Name, want)
		}
	}
	if cube.NumClasses() != ds.NumClasses() {
		t.Fatalf("%s: %d classes, want %d", what, cube.NumClasses(), ds.NumClasses())
	}
	want, total := naiveCells(ds, attrs)
	if cube.Total() != total {
		t.Fatalf("%s: total %d, brute force %d", what, cube.Total(), total)
	}
	if got := cubeCells(cube); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cells differ from brute force", what)
	}
}

// cubeCells flattens a cube's nonzero cells into the naive map form.
func cubeCells(c *Cube) map[string]int64 {
	out := make(map[string]int64)
	c.ForEach(func(values []int32, class int32, count int64) {
		if count != 0 {
			out[fmt.Sprint(values, class)] += count
		}
	})
	return out
}

// TestNDCubeMatchesBruteForce checks every cell of random 3-D and 4-D
// cubes, built one at a time and through the shared-scan batch, against
// the brute-force recount.
func TestNDCubeMatchesBruteForce(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	for _, k := range []int{3, 4} {
		for trial := int64(0); trial < 3; trial++ {
			ds := randomDataset(t, 40*int64(k)+trial, 2500, 5, 4, 3, 0.05)
			rng := rand.New(rand.NewSource(trial + 500))
			attrs := rng.Perm(5)[:k]

			cube, err := Build(ds, attrs)
			if err != nil {
				t.Fatal(err)
			}
			want, total := naiveCells(ds, attrs)
			if cube.Total() != total {
				t.Fatalf("k=%d trial %d: total %d, brute force %d", k, trial, cube.Total(), total)
			}
			if got := cubeCells(cube); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d trial %d attrs %v: cube cells differ from brute force", k, trial, attrs)
			}

			// The batch path must produce the identical cube, including
			// when the request rides alongside others and a duplicate.
			reqs := [][]int{attrs, attrs[:2], attrs}
			cubes, err := BuildMany(context.Background(), ds, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, 2} {
				if cubes[i].Total() != total {
					t.Fatalf("k=%d trial %d: BuildMany[%d] total %d, want %d", k, trial, i, cubes[i].Total(), total)
				}
				if got := cubeCells(cubes[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d trial %d: BuildMany[%d] cells differ from brute force", k, trial, i)
				}
			}
		}
	}
}

// TestNDSliceDiceRollupRoundTrip composes the operators on a 4-D cube
// and checks each result cell-for-cell against a direct recount of the
// equivalent filtered or marginalized rows.
func TestNDSliceDiceRollupRoundTrip(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	ds := randomDataset(t, 77, 3000, 4, 4, 3, 0.04)
	cube, err := Build(ds, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}

	// Slice a1=2: identical to a 3-D brute force over the matching rows
	// (the 4-D cube skipped rows with ANY dim missing; mirror that).
	sliced, err := cube.Slice(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub := ds.Filter(func(r int) bool {
		return ds.CatCode(r, 0) >= 0 && ds.CatCode(r, 1) == 2 &&
			ds.CatCode(r, 2) >= 0 && ds.CatCode(r, 3) >= 0
	})
	want, total := naiveCells(sub, []int{0, 2, 3})
	if sliced.Total() != total {
		t.Fatalf("slice total %d, brute force %d", sliced.Total(), total)
	}
	if got := cubeCells(sliced); !reflect.DeepEqual(got, want) {
		t.Fatal("slice cells differ from brute force on the filtered rows")
	}

	// Rollup of a3 from the slice: the remaining 2-D cube over (a0,a2).
	rolled, err := sliced.Rollup(2)
	if err != nil {
		t.Fatal(err)
	}
	want2, total2 := naiveCells(sub, []int{0, 2})
	// naiveCells over (a0,a2) counts rows regardless of a3, but the
	// rolled cube descends from the 4-D build, which required a3 to be
	// present — sub already filters a3, so the two populations agree.
	if rolled.Total() != total2 {
		t.Fatalf("rollup total %d, brute force %d", rolled.Total(), total2)
	}
	if got := cubeCells(rolled); !reflect.DeepEqual(got, want2) {
		t.Fatal("rollup cells differ from brute force")
	}

	// Dice to a value subset: equal to the brute force with the other
	// values filtered out.
	keep := []int32{0, 3}
	diced, err := cube.Dice(2, keep)
	if err != nil {
		t.Fatal(err)
	}
	dsub := ds.Filter(func(r int) bool {
		v := ds.CatCode(r, 2)
		return v == 0 || v == 3
	})
	wantD, totalD := naiveCells(dsub, []int{0, 1, 2, 3})
	if diced.Total() != totalD {
		t.Fatalf("dice total %d, brute force %d", diced.Total(), totalD)
	}
	// Dice re-encodes the restricted dimension to the kept values in
	// order; translate the diced coordinates back to the original codes
	// before comparing against the recount.
	gotD := make(map[string]int64)
	diced.ForEach(func(values []int32, class int32, n int64) {
		if n != 0 {
			orig := append([]int32(nil), values...)
			orig[2] = keep[values[2]]
			gotD[fmt.Sprint(orig, class)] += n
		}
	})
	if !reflect.DeepEqual(gotD, wantD) {
		t.Fatal("dice cells differ from brute force")
	}

	// Identity dice changes nothing.
	all, err := cube.Dice(0, []int32{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cubeCells(all), cubeCells(cube)) || all.Total() != cube.Total() {
		t.Fatal("identity dice changed cells")
	}
}

// TestNDMergeAdditivity shards the rows in two, builds a k-D cube per
// shard, merges, and requires exact equality with the whole-dataset
// brute force — the additive-merge invariant at k ≥ 3.
func TestNDMergeAdditivity(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	for _, k := range []int{3, 4} {
		ds := randomDataset(t, 321+int64(k), 2800, 4, 4, 3, 0.05)
		attrs := []int{0, 1, 2, 3}[:k]
		half := ds.NumRows() / 2
		lo := ds.Filter(func(r int) bool { return r < half })
		hi := ds.Filter(func(r int) bool { return r >= half })

		a, err := Build(lo, attrs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(hi, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Merge(b, nil, nil); err != nil {
			t.Fatal(err)
		}
		want, total := naiveCells(ds, attrs)
		if a.Total() != total {
			t.Fatalf("k=%d: merged total %d, brute force %d", k, a.Total(), total)
		}
		if got := cubeCells(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: merged cells differ from whole-dataset brute force", k)
		}
	}
}
