package rulecube

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/testutil"
)

// shardDataset builds a three-attribute categorical dataset (A1, A2,
// class C) from "a1 a2 c" rows with fresh dictionaries, so two shards
// built from different row sets see genuinely different code orders.
func shardDataset(t *testing.T, rows ...string) *dataset.Dataset {
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
	for _, r := range rows {
		if err := b.AddRow(strings.Fields(r)); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// Shard rows chosen so the two shards have disjoint first-appearance
// orders: shard2 opens with labels shard1 never saw.
var (
	shard1Rows = []string{
		"a e yes", "a e no", "b f yes", "a g no", "b e yes", "? f no",
	}
	shard2Rows = []string{
		"c h no", "c e maybe", "a h yes", "d f no", "c ? maybe",
	}
)

func TestAddCounts(t *testing.T) {
	dst := []int64{1, 2, 3, 4}
	AddCounts(dst, []int64{10, 0, 5})
	if want := []int64{11, 2, 8, 4}; !reflect.DeepEqual(dst, want) {
		t.Fatalf("dst = %v, want %v", dst, want)
	}
}

// storeOf counts every 1-D and pair cube of ds (buildStore).
func storeOf(t *testing.T, ds *dataset.Dataset) []*Cube {
	t.Helper()
	cubes, err := buildStore(context.Background(), ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cubes
}

// mergeStores folds src, the store cubes of srcDS, into dst, those of
// dstDS, cube by cube through Cube.Merge under one dictionary union —
// the engine's shard merge — and appends srcDS's rows to dstDS.
func mergeStores(dstDS *dataset.Dataset, dst []*Cube, srcDS *dataset.Dataset, src []*Cube) error {
	rm, err := dstDS.UnionDicts(srcDS)
	if err != nil {
		return err
	}
	for i, c := range dst {
		dims := make([][]int32, c.NumDims())
		for p, a := range c.attrIdx {
			dims[p] = rm.Attr(a)
		}
		if err := c.Merge(src[i], dims, rm.Attr(dstDS.ClassIndex())); err != nil {
			return err
		}
	}
	return dstDS.AppendRemapped(srcDS, rm)
}

// TestStoreMergeMatchesSinglePass is the core merge oracle: build
// stores over two shards with non-identical dictionaries, merge, and
// require the result DeepEqual to the single-pass store over the
// concatenated rows — dataset included.
func TestStoreMergeMatchesSinglePass(t *testing.T) {
	ds1 := shardDataset(t, shard1Rows...)
	ds2 := shardDataset(t, shard2Rows...)
	st1, st2 := storeOf(t, ds1), storeOf(t, ds2)
	if err := mergeStores(ds1, st1, ds2, st2); err != nil {
		t.Fatal(err)
	}

	all := append(append([]string(nil), shard1Rows...), shard2Rows...)
	dsAll := shardDataset(t, all...)
	want := storeOf(t, dsAll)
	if !reflect.DeepEqual(ds1, dsAll) {
		t.Fatal("merged dataset differs from the single-pass dataset")
	}
	for i := range want {
		if !reflect.DeepEqual(st1[i], want[i]) {
			t.Fatalf("merged cube %v differs from the single-pass cube", want[i].attrIdx)
		}
	}
}

// TestStoreMergeZeroRowShard checks both positions of an empty shard:
// empty-into-populated and populated-into-empty.
func TestStoreMergeZeroRowShard(t *testing.T) {
	t.Run("empty destination", func(t *testing.T) {
		empty, full := shardDataset(t), shardDataset(t, shard1Rows...)
		got := storeOf(t, empty)
		if err := mergeStores(empty, got, full, storeOf(t, full)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, storeOf(t, shardDataset(t, shard1Rows...))) {
			t.Fatalf("empty-destination merge differs from single-pass store")
		}
	})
	t.Run("empty source", func(t *testing.T) {
		empty, full := shardDataset(t), shardDataset(t, shard1Rows...)
		got := storeOf(t, full)
		if err := mergeStores(full, got, empty, storeOf(t, empty)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, storeOf(t, shardDataset(t, shard1Rows...))) {
			t.Fatalf("empty-source merge changed the store")
		}
	})
}

func TestStoreMergeSchemaMismatchNamesAttribute(t *testing.T) {
	ds1 := shardDataset(t, shard1Rows...)
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "A1", Kind: dataset.Categorical},
			{Name: "B2", Kind: dataset.Categorical},
			{Name: "C", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow([]string{"a", "e", "yes"}); err != nil {
		t.Fatal(err)
	}
	other, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = mergeStores(ds1, storeOf(t, ds1), other, storeOf(t, other))
	if err == nil || !strings.Contains(err.Error(), `"A2"`) {
		t.Fatalf("err = %v, want mismatch naming \"A2\"", err)
	}
}

func TestCubeMergeDimensionMismatch(t *testing.T) {
	ds := shardDataset(t, shard1Rows...)
	c1, err := Build(ds, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Build(ds, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Merge(c2, nil, nil); err == nil {
		t.Fatal("merging cubes over different attributes should fail")
	}
	pair, err := Build(ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Merge(pair, nil, nil); err == nil {
		t.Fatal("merging cubes of different dimensionality should fail")
	}
}

// TestIngestRowsMatchesRebuild: folding appended rows into every cube
// of a built store with IngestCubes must land exactly where a fresh
// store build over the base rows plus the appended rows lands — new labels, a new
// class, missing values and a missing class included.
func TestIngestRowsMatchesRebuild(t *testing.T) {
	appended := []string{
		"a f yes",
		"z e new", // a fresh A1 label and a fresh class
		"? g no",
		"b ? yes",
		"z g ?", // missing class: counted nowhere
	}
	ds := shardDataset(t, shard1Rows...)
	st := storeOf(t, ds)
	lines := make([][]string, len(appended))
	for i, line := range appended {
		lines[i] = strings.Fields(line)
	}
	IngestCubes(st, ds, testutil.AppendBatch(t, ds, lines))
	got := st
	want := storeOf(t, shardDataset(t, append(append([]string(nil), shard1Rows...), appended...)...))
	if len(got) != len(want) {
		t.Fatalf("ingested store has %d cubes, rebuilt store %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !reflect.DeepEqual(g.attrIdx, w.attrIdx) || !reflect.DeepEqual(g.dims, w.dims) ||
			g.numClasses != w.numClasses || g.total != w.total || !reflect.DeepEqual(g.counts, w.counts) {
			t.Errorf("cube %v: ingested (dims %v, total %d) differs from rebuilt (dims %v, total %d)",
				w.attrIdx, g.dims, g.total, w.dims, w.total)
		}
	}
}
