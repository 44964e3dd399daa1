package rulecube

import (
	"reflect"
	"strings"
	"testing"

	"opmap/internal/dataset"
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

// TestStoreMergeMatchesSinglePass is the core merge oracle: build
// stores over two shards with non-identical dictionaries, merge, and
// require the result DeepEqual to the single-pass store over the
// concatenated rows — dataset included.
func TestStoreMergeMatchesSinglePass(t *testing.T) {
	ds1 := shardDataset(t, shard1Rows...)
	ds2 := shardDataset(t, shard2Rows...)
	st1, err := BuildStore(ds1, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := BuildStore(ds2, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Merge(st2); err != nil {
		t.Fatal(err)
	}

	all := append(append([]string(nil), shard1Rows...), shard2Rows...)
	dsAll := shardDataset(t, all...)
	want, err := BuildStore(dsAll, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The merged store's dataset holds only shard1's rows (stores merge
	// counts, not rows — the session layer appends rows separately), so
	// append shard2's remapped rows before the full comparison.
	rm, err := st1.Dataset().UnionDicts(ds2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Dataset().AppendRemapped(ds2, rm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st1, want) {
		t.Fatalf("merged store differs from single-pass store\n got: %+v\nwant: %+v", st1.Stats(), want.Stats())
	}
}

// TestStoreMergeZeroRowShard checks both positions of an empty shard:
// empty-into-populated and populated-into-empty.
func TestStoreMergeZeroRowShard(t *testing.T) {
	buildPair := func() (*Store, *Store, *Store) {
		t.Helper()
		empty, err := BuildStore(shardDataset(t), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := BuildStore(shardDataset(t, shard1Rows...), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildStore(shardDataset(t, shard1Rows...), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return empty, full, want
	}

	t.Run("empty destination", func(t *testing.T) {
		empty, full, want := buildPair()
		if err := empty.Merge(full); err != nil {
			t.Fatal(err)
		}
		rm, err := empty.Dataset().UnionDicts(full.Dataset())
		if err != nil {
			t.Fatal(err)
		}
		if err := empty.Dataset().AppendRemapped(full.Dataset(), rm); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(empty, want) {
			t.Fatalf("empty-destination merge differs from single-pass store")
		}
	})
	t.Run("empty source", func(t *testing.T) {
		empty, full, want := buildPair()
		if err := full.Merge(empty); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, want) {
			t.Fatalf("empty-source merge changed the store")
		}
	})
}

func TestStoreMergeSchemaMismatchNamesAttribute(t *testing.T) {
	st1, err := BuildStore(shardDataset(t, shard1Rows...), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
	st2, err := BuildStore(other, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = st1.Merge(st2)
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
// of a built store with IngestCubes must land exactly where a fresh BuildStore over
// the base rows plus the appended rows lands — new labels, a new
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
	st, err := BuildStore(ds, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Row layout: [A1, A2, C]; -1 is a missing value.
	rows := make([][]int32, len(appended))
	classes := make([]int32, len(appended))
	for i, line := range appended {
		if err := ds.AppendRow(strings.Fields(line)); err != nil {
			t.Fatal(err)
		}
		r := ds.NumRows() - 1
		rows[i] = []int32{ds.CatCode(r, 0), ds.CatCode(r, 1), ds.ClassCode(r)}
		classes[i] = ds.ClassCode(r)
	}
	if err := IngestCubes(st.Cubes(), ds.NumAttrs(), rows, classes); err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildStore(shardDataset(t, append(append([]string(nil), shard1Rows...), appended...)...), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := st.Cubes(), fresh.Cubes()
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

func TestIngestRowsLengthMismatch(t *testing.T) {
	ds := shardDataset(t, shard1Rows...)
	c, err := Build(ds, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := IngestCubes([]*Cube{c}, ds.NumAttrs(), [][]int32{{0, 0, 0}}, []int32{0, 1}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if err := IngestCubes([]*Cube{c}, ds.NumAttrs(), [][]int32{{0, 0}}, []int32{0}); err == nil {
		t.Fatal("expected row-width error")
	}
}
