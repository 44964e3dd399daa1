package rulecube_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/rulecube"
	"opmap/internal/testutil"
)

// Ingest tests: batches folded into an eager store, the eager engine's
// k ≥ 3 drill-down cubes and a lazy source's resident cubes must land
// exactly on a brute-force recount of base plus appended rows.

// ingestAttrs is the number of condition attributes of the ingest
// datasets; the class sits at index ingestAttrs.
const ingestAttrs = 5

// ingestRow draws one textual row over labels v0..v{labels-1} and
// classes c0..c{classes-1}. Each value (class included) is missing
// with probability missing; a sparse row sets only two attributes.
func ingestRow(rng *rand.Rand, labels, classes int, missing float64, sparse bool) []string {
	row := make([]string, ingestAttrs+1)
	keep := map[int]bool{rng.Intn(ingestAttrs): true, rng.Intn(ingestAttrs): true}
	for a := 0; a < ingestAttrs; a++ {
		row[a] = fmt.Sprintf("v%d", rng.Intn(labels))
		if rng.Float64() < missing || (sparse && !keep[a]) {
			row[a] = dataset.MissingLabel
		}
	}
	row[ingestAttrs] = fmt.Sprintf("c%d", rng.Intn(classes))
	if rng.Float64() < missing {
		row[ingestAttrs] = dataset.MissingLabel
	}
	return row
}

// ingestDataset builds a base dataset of n random rows.
func ingestDataset(t *testing.T, rng *rand.Rand, n int) *dataset.Dataset {
	t.Helper()
	schema := dataset.Schema{ClassIndex: ingestAttrs}
	for a := 0; a < ingestAttrs; a++ {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("A%d", a), Kind: dataset.Categorical})
	}
	schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: "C", Kind: dataset.Categorical})
	b, err := dataset.NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if err := b.AddRow(ingestRow(rng, 3, 2, 0.1, false)); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// lazyResidents makes the lazy source hold 1-D, pair and 3-D cubes.
func lazyResidents(t *testing.T, ds *dataset.Dataset, sets [][]int) *engine.LazySource {
	t.Helper()
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range sets {
		if _, err := lazy.CubeN(context.Background(), attrs); err != nil {
			t.Fatal(err)
		}
	}
	return lazy
}

// TestIngestOracle feeds seeded random batches — dense and sparse rows,
// missing values, missing classes, and labels and classes that grow
// the dictionaries mid-stream — into an eager engine (every 1-D and
// pair cube pinned, plus a resident 3-D drill-down cube) and a lazy
// source holding 1-D, pair
// and 3-D cubes. After every batch each cube must equal the
// brute-force recount over the base rows plus every appended row. The
// last two batches take A0's dictionary to exactly 255 labels, where
// its column stays one byte per row, and then past it, where the
// column widens; cubes counted afresh over the widened column must
// match the recount too.
func TestIngestOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ds := ingestDataset(t, rng, 200)
	eager, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eager.PinAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := eager.ResidentCubes()
	if _, err := eager.CubeN(context.Background(), []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	lazySets := [][]int{{0}, {3}, {0, 1}, {2, 4}, {0, 2, 4}, {1, 3, 4}}
	lazy := lazyResidents(t, ds, lazySets)

	check := func(step string) {
		t.Helper()
		for _, c := range st {
			rulecube.CheckBruteForce(t, ds, c.AttrIndices(), c, fmt.Sprintf("%s: store cube %v", step, c.AttrIndices()))
		}
		nd, err := eager.CubeN(context.Background(), []int{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		rulecube.CheckBruteForce(t, ds, []int{1, 2, 3}, nd, step+": eager 3-D cube")
		resident := lazy.ResidentCubes()
		if len(resident) != len(lazySets) {
			t.Fatalf("%s: lazy source holds %d cubes, want %d", step, len(resident), len(lazySets))
		}
		for _, c := range resident {
			rulecube.CheckBruteForce(t, ds, c.AttrIndices(), c, fmt.Sprintf("%s: lazy cube %v", step, c.AttrIndices()))
		}
	}
	check("base")
	for b := 0; b < 24; b++ {
		labels, classes := 3+b/4, 2+b/8 // new labels every 4th batch, a new class every 8th
		lines := make([][]string, 1+rng.Intn(40))
		for i := range lines {
			lines[i] = ingestRow(rng, labels, classes, 0.15, b%3 == 2)
		}
		from := testutil.AppendBatch(t, ds, lines)
		eager.IngestRows(from)
		lazy.IngestRows(from)
		check(fmt.Sprintf("batch %d", b))
	}
	if got := ds.Cardinality(0); got <= 3 {
		t.Fatalf("dictionaries never grew (A0 has %d labels)", got)
	}
	for _, step := range []struct {
		labels int
		wide   bool
	}{{dataset.MaxNarrowLabels, false}, {dataset.MaxNarrowLabels + 6, true}} {
		var lines [][]string
		for n := ds.Cardinality(0); n < step.labels; n++ {
			line := ingestRow(rng, 3, 2, 0.15, false)
			line[0] = fmt.Sprintf("w%d", n)
			lines = append(lines, line)
		}
		from := testutil.AppendBatch(t, ds, lines)
		eager.IngestRows(from)
		lazy.IngestRows(from)
		name := fmt.Sprintf("A0 at %d labels", ds.Cardinality(0))
		if ds.Cardinality(0) != step.labels || ds.Column(0).Codes.IsWide() != step.wide {
			t.Fatalf("%s: wide %v, want %d labels, wide %v", name, ds.Column(0).Codes.IsWide(), step.labels, step.wide)
		}
		check(name)
		for _, c := range storeCubes(t, ds) {
			rulecube.CheckBruteForce(t, ds, c.AttrIndices(), c, fmt.Sprintf("%s: fresh cube %v", name, c.AttrIndices()))
		}
	}
}

// TestSyncDimsAllocFree: with no dictionary growth — the steady state
// of every ingest batch — SyncDims must not allocate.
func TestSyncDimsAllocFree(t *testing.T) {
	ds := ingestDataset(t, rand.New(rand.NewSource(3)), 50)
	c, err := rulecube.Build(ds, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, c.SyncDims); n != 0 {
		t.Fatalf("SyncDims allocated %.0f times per call with no dictionary growth", n)
	}
}
