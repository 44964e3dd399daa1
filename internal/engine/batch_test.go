package engine_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"opmap/internal/engine"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/testutil"
)

// TestCubesOracle checks the bulk path on both sources against the
// eager store's cubes: every request shape (1-D, pair in both orders,
// duplicates) must yield exactly the cube the store holds.
func TestCubesOracle(t *testing.T) {
	ds, gt, eager, lazy := oracle(t)
	ctx := context.Background()
	phone := ds.AttrIndex(gt.PhoneAttr)
	dist := ds.AttrIndex(gt.DistinguishingAttr)
	other := 0
	if other == phone || other == dist {
		other = 1
	}
	reqs := [][]int{
		{phone},
		{phone, dist},
		{dist, phone}, // same cube, reversed request order
		{other},
		{phone, other},
		{phone, dist}, // duplicate
	}
	for _, src := range []*engine.LazySource{eager, lazy} {
		got, err := src.Cubes(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("got %d cubes, want %d", len(got), len(reqs))
		}
		for i, attrs := range reqs {
			want, err := eager.CubeN(ctx, attrs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("req %d (%v): bulk cube differs from the store's", i, attrs)
			}
		}
		if got[1] != got[2] || got[1] != got[5] {
			t.Error("normalized duplicate requests should share one cube")
		}
	}
}

// TestCubesValidation mirrors the single-cube contract on the bulk
// path: out-of-range, class and self-pair requests are errors, and an
// empty request list is a no-op.
func TestCubesValidation(t *testing.T) {
	ds, _, _, lazy := oracle(t)
	ctx := context.Background()
	cls := ds.ClassIndex()
	for _, tc := range []struct {
		name string
		reqs [][]int
	}{
		{"out of range", [][]int{{ds.NumAttrs()}}},
		{"class 1-D", [][]int{{cls}}},
		{"class pair", [][]int{{0, cls}}},
		{"self pair", [][]int{{1, 1}}},
		{"empty set", [][]int{{0}, {}}},
	} {
		if _, err := lazy.Cubes(ctx, tc.reqs); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	out, err := lazy.Cubes(ctx, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty bulk request: got (%v, %v)", out, err)
	}
}

// TestCubesSharedScan asserts the tentpole property: a cold bulk
// request performs exactly one dataset scan however many cubes it
// materializes, and a warm repeat performs none.
func TestCubesSharedScan(t *testing.T) {
	ds, _, _, lazy := oracle(t)
	ctx := context.Background()
	var reqs [][]int
	reqs = append(reqs, []int{0})
	for a := 1; a < ds.NumAttrs(); a++ {
		if a == ds.ClassIndex() {
			continue
		}
		reqs = append(reqs, []int{0, a}, []int{a})
	}
	scans := obsv.Default().Counter(rulecube.CubeScansCounterName)
	s0 := scans.Value()
	if _, err := lazy.Cubes(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s0; d != 1 {
		t.Errorf("cold bulk request performed %d scans, want exactly 1", d)
	}
	s1 := scans.Value()
	if _, err := lazy.Cubes(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s1; d != 0 {
		t.Errorf("warm bulk request performed %d scans, want 0", d)
	}
}

// TestCubesSingleflightWithSingles runs bulk requests concurrently with
// single-cube CubeN calls over the same keys: the singleflight registry must
// give every key exactly one build, whichever path gets there first.
func TestCubesSingleflightWithSingles(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	ds, gt, eager, lazy := oracle(t)
	ctx := context.Background()
	phone := ds.AttrIndex(gt.PhoneAttr)
	var pairs [][2]int
	var reqs [][]int
	for a := 0; a < ds.NumAttrs(); a++ {
		if a == ds.ClassIndex() || a == phone {
			continue
		}
		pairs = append(pairs, [2]int{phone, a})
		reqs = append(reqs, []int{phone, a})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if _, err := lazy.Cubes(ctx, reqs); err != nil {
					errs <- err
				}
				return
			}
			for _, p := range pairs {
				if _, err := lazy.CubeN(ctx, []int{p[0], p[1]}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := lazy.Stats().TwoDBuilds; got != int64(len(pairs)) {
		t.Errorf("built %d pair cubes for %d keys: singleflight across bulk and single paths failed", got, len(pairs))
	}
	for _, p := range pairs {
		want, err := eager.CubeN(ctx, []int{p[0], p[1]})
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazy.CubeN(ctx, []int{p[0], p[1]})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pair %v: concurrent bulk build produced a wrong cube", p)
		}
	}
}
