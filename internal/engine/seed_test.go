package engine_test

import (
	"context"
	"reflect"
	"testing"

	"opmap/internal/compare"
	"opmap/internal/engine"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/workload"
)

// TestSeedCubes pins the warm-start contract: cubes lifted from one
// engine install into a fresh LazySource without advancing build
// counters, and queries over the seeded set are all hits.
func TestSeedCubes(t *testing.T) {
	ds, gt, eager, lazy := oracle(t)
	ctx := context.Background()
	in := compareInput(t, ds, gt)

	// Materialize a working set in a first lazy engine. A sweep caches
	// the split attribute's pair cubes; a pairwise compare would not.
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compare.NewSource(src).SweepContext(ctx, in.Attr, in.Class, compare.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := compare.NewSource(src).CompareContext(ctx, in, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resident := src.ResidentCubes()
	if len(resident) != ds.NumAttrs()-1 {
		t.Fatalf("%d resident cubes after a sweep, want the split attribute's 1-D cube and its %d pair cubes", len(resident), ds.NumAttrs()-2)
	}
	// ResidentCubes must be deterministic: same order on every call.
	if !reflect.DeepEqual(resident, src.ResidentCubes()) {
		t.Error("ResidentCubes order is not deterministic")
	}

	n, err := lazy.SeedCubes(resident)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(resident) {
		t.Errorf("seeded %d of %d cubes", n, len(resident))
	}
	st := lazy.Stats()
	if st.OneDBuilds != 0 || st.TwoDBuilds != 0 {
		t.Errorf("seeding advanced build counters: 1-D %d, 2-D %d", st.OneDBuilds, st.TwoDBuilds)
	}
	scans := obsv.Default().Counter(rulecube.CubeScansCounterName)
	s0 := scans.Value()
	got, err := compare.NewSource(lazy).CompareContext(ctx, in, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s0; d != 0 {
		t.Errorf("seeded engine's compare performed %d scans, want 0", d)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("seeded engine's Compare differs from the builder's")
	}
	st = lazy.Stats()
	if st.OneDBuilds != 0 || st.TwoDBuilds != 0 {
		t.Errorf("seeded engine built cubes for a covered query: 1-D %d, 2-D %d", st.OneDBuilds, st.TwoDBuilds)
	}

	// Re-seeding the same cubes is a no-op, not an error.
	n, err = lazy.SeedCubes(resident)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("re-seed accepted %d already-resident cubes", n)
	}
	_ = eager
}

// TestSeedCubesRejectsMismatch pins the all-or-nothing validation: one
// incompatible cube rejects the whole batch without mutating the
// engine.
func TestSeedCubesRejectsMismatch(t *testing.T) {
	ds, gt, _, lazy := oracle(t)
	ctx := context.Background()

	// Cubes counted over a different dataset shape (more phones → wider
	// dictionaries) must not seed.
	other, _, err := workload.CallLog(workload.CallLogConfig{Seed: 7, Records: 4000, NumPhones: 9, NoiseAttrs: 4})
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := rulecube.NormalizeAttrs(other, nil)
	if err != nil {
		t.Fatal(err)
	}
	cubes, err := rulecube.BuildMany(ctx, other, rulecube.StoreRequests(attrs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.SeedCubes(cubes); err == nil {
		t.Fatal("cubes over a mismatched dataset seeded")
	}
	st := lazy.Stats()
	if st.Pinned != 0 || st.CachedCubes != 0 {
		t.Errorf("rejected seed left cubes behind: pinned %d, cached %d", st.Pinned, st.CachedCubes)
	}
	// The engine still works cold after the rejected seed.
	in := compareInput(t, ds, gt)
	if _, err := compare.NewSource(lazy).CompareContext(ctx, in, compare.Options{}); err != nil {
		t.Fatal(err)
	}

	// A nil cube in the batch is rejected too.
	if _, err := lazy.SeedCubes([]*rulecube.Cube{nil}); err == nil {
		t.Error("nil cube seeded")
	}
}
