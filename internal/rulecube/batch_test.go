package rulecube

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
)

// randomDatasetMissingClass is randomDataset with missing values in the
// class column too, so the batch oracle covers the rows the scan must
// skip entirely.
func randomDatasetMissingClass(t *testing.T, seed int64, rows, attrs, card, classes int, missingRate float64) *dataset.Dataset {
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
		for i := 0; i <= attrs; i++ {
			if rng.Float64() < missingRate {
				codes[i] = dataset.Missing
			} else if i == attrs {
				codes[i] = int32(rng.Intn(classes))
			} else {
				codes[i] = int32(rng.Intn(card))
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

// TestBuildManyOracle checks every request shape against the
// brute-force recount: pair cubes in both dimension orders, 1-D cubes
// derived from a pair plan's scratch, 1-D cubes with a dedicated plan,
// and duplicate requests.
func TestBuildManyOracle(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		ds := randomDatasetMissingClass(t, trial, 2500, 5, 4, 3, 0.08)
		reqs := [][]int{
			{0, 1},
			{1, 0}, // reversed dimension order is a distinct cube
			{2, 3},
			{0},    // derived from pair (0,1)
			{3},    // derived from pair (2,3), partner position
			{4},    // no covering pair: dedicated 1-D plan
			{0, 1}, // duplicate shares the cube
		}
		got, err := BuildMany(context.Background(), ds, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("got %d cubes, want %d", len(got), len(reqs))
		}
		for i, attrs := range reqs {
			checkBruteForce(t, ds, attrs, got[i], fmt.Sprintf("trial %d req %d %v", trial, i, attrs))
		}
		if got[0] != got[6] {
			t.Error("duplicate requests should share one cube")
		}
	}
}

func TestBuildManyValidation(t *testing.T) {
	ds := fig1Dataset(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		reqs [][]int
	}{
		{"out of range", [][]int{{9}}},
		{"negative", [][]int{{-1}}},
		{"class dim", [][]int{{2}}},
		{"class pair", [][]int{{0, 2}}},
		{"self pair", [][]int{{1, 1}}},
		{"empty", [][]int{{0}, {}}},
	} {
		if _, err := BuildMany(ctx, ds, tc.reqs); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	out, err := BuildMany(ctx, ds, nil)
	if err != nil || out != nil {
		t.Errorf("empty request list: got (%v, %v), want (nil, nil)", out, err)
	}
}

func TestBuildManyCounters(t *testing.T) {
	ds := fig1Dataset(t)
	scans := obsv.Default().Counter(CubeScansCounterName)
	built := obsv.Default().Counter(CubesBuiltCounterName)
	s0, b0 := scans.Value(), built.Value()
	// 4 requests, 3 distinct cubes, one scan.
	_, err := BuildMany(context.Background(), ds, [][]int{{0, 1}, {0}, {1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s0; d != 1 {
		t.Errorf("scan counter advanced by %d, want 1", d)
	}
	if d := built.Value() - b0; d != 3 {
		t.Errorf("built counter advanced by %d, want 3", d)
	}
	// Build is a one-request BuildMany: one scan, one cube.
	s1, b1 := scans.Value(), built.Value()
	if _, err := Build(ds, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s1; d != 1 {
		t.Errorf("single build advanced scans by %d, want 1", d)
	}
	if d := built.Value() - b1; d != 1 {
		t.Errorf("single build advanced built by %d, want 1", d)
	}
}

func TestBuildManyCancelAndFault(t *testing.T) {
	ds := fig1Dataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildMany(ctx, ds, [][]int{{0, 1}}); err != context.Canceled {
		t.Errorf("canceled ctx: got %v", err)
	}
	disarm, err := faultinject.Arm(faultinject.Fault{Site: faultinject.SiteCubeBatch, Kind: faultinject.Error})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	if _, err := BuildMany(context.Background(), ds, [][]int{{0, 1}}); err == nil {
		t.Error("armed batch fault: expected error")
	}
}

// TestBuildManySharded forces the parallel shard-and-merge path by
// raising GOMAXPROCS over a dataset large enough to split, and checks
// the merged counts against the brute-force recount and against the
// single-shard scan.
func TestBuildManySharded(t *testing.T) {
	rows := 3 * batchShardRows
	ds := randomDatasetMissingClass(t, 42, rows, 4, 4, 2, 0.05)
	reqs := [][]int{{0, 1}, {2}, {0, 1, 3}}
	build := func(procs int) []*Cube {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cubes, err := BuildMany(context.Background(), ds, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return cubes
	}
	sharded, single := build(4), build(1)
	for i, attrs := range reqs {
		checkBruteForce(t, ds, attrs, sharded[i], fmt.Sprintf("sharded cube %v", attrs))
		if !reflect.DeepEqual(sharded[i], single[i]) {
			t.Errorf("sharded cube %v differs from the single-shard scan", attrs)
		}
	}
}

// BenchmarkBatchVsSequential records the shared-scan win over N
// independent builds for a sweep-shaped request set (one split
// attribute against every other).
func BenchmarkBatchVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const rows, attrs, card, classes = 20000, 40, 8, 3
	schema := dataset.Schema{ClassIndex: attrs}
	for i := 0; i < attrs; i++ {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical})
	}
	schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: "class", Kind: dataset.Categorical})
	bl, err := dataset.NewBuilder(schema)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < attrs; i++ {
		d := dataset.NewDictionary()
		for v := 0; v < card; v++ {
			d.Code(fmt.Sprintf("v%d", v))
		}
		bl.WithDict(i, d)
	}
	cd := dataset.NewDictionary()
	for c := 0; c < classes; c++ {
		cd.Code(fmt.Sprintf("c%d", c))
	}
	bl.WithDict(attrs, cd)
	codes := make([]int32, attrs+1)
	for r := 0; r < rows; r++ {
		for i := 0; i < attrs; i++ {
			codes[i] = int32(rng.Intn(card))
		}
		codes[attrs] = int32(rng.Intn(classes))
		if err := bl.AddCodedRow(codes, nil); err != nil {
			b.Fatal(err)
		}
	}
	ds, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	reqs := [][]int{{0}}
	for ai := 1; ai < attrs; ai++ {
		reqs = append(reqs, []int{0, ai}, []int{ai})
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildMany(context.Background(), ds, reqs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, attrs := range reqs {
				if _, err := Build(ds, attrs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
