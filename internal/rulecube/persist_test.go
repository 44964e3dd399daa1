package rulecube_test

import (
	"bytes"
	"context"
	"testing"

	"opmap/internal/compare"
	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/rulecube"
	"opmap/internal/snapshot"
	"opmap/internal/workload"
)

// pinAll counts every 1-D and pair cube of ds and pins them into an
// engine, as an eager session serves them.
func pinAll(t testing.TB, ds *dataset.Dataset) *engine.LazySource {
	t.Helper()
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.PinAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return src
}

// storeCubes counts every 1-D and pair cube of ds in one BuildMany
// scan, in StoreRequests order.
func storeCubes(t testing.TB, ds *dataset.Dataset) []*rulecube.Cube {
	t.Helper()
	attrs, err := rulecube.NormalizeAttrs(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	cubes, err := rulecube.BuildMany(context.Background(), ds, rulecube.StoreRequests(attrs))
	if err != nil {
		t.Fatal(err)
	}
	return cubes
}

// snapshotRoundTrip writes src's pinned cubes and dataset as an eager
// snapshot, reads it back, and pins the read cubes into a fresh engine
// over the read dataset: the offline build reloaded in a new process.
func snapshotRoundTrip(t testing.TB, src *engine.LazySource) *engine.LazySource {
	t.Helper()
	snap := &snapshot.Snapshot{Mode: snapshot.ModeEager, Raw: src.Dataset(), Attrs: src.Attrs()}
	snap.SetCubes(src.ResidentCubes())
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := engine.NewLazy(snap.Working, engine.LazyOptions{Attrs: snap.Attrs})
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Pin(snap.Cubes()); err != nil {
		t.Fatal(err)
	}
	return back
}

// fig1Dataset mirrors the in-package fixture (the paper's Fig. 1 cube)
// for this external test package.
func fig1Dataset(t testing.TB) *dataset.Dataset {
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

// TestStoreRoundTrip: every cell of every pinned cube, and the names
// and dictionaries around them, survive a snapshot round trip.
func TestStoreRoundTrip(t *testing.T) {
	ds := fig1Dataset(t)
	src := pinAll(t, ds)
	back := snapshotRoundTrip(t, src)
	want, got := src.ResidentCubes(), back.ResidentCubes()
	if len(got) != len(want) {
		t.Fatalf("cube count %d != %d", len(got), len(want))
	}
	for i, orig := range want {
		c := got[i]
		orig.ForEach(func(values []int32, class int32, count int64) {
			n, err := c.Count(values, class)
			if err != nil {
				t.Fatal(err)
			}
			if n != count {
				t.Fatalf("cube %v cell %v/%d: %d != %d", orig.AttrIndices(), values, class, n, count)
			}
		})
		if c.Total() != orig.Total() {
			t.Fatalf("cube %v total changed", orig.AttrIndices())
		}
	}
	// Metadata survives: names, dictionaries, class labels.
	if back.Dataset().Attr(0).Name != "A1" {
		t.Errorf("attr name = %q", back.Dataset().Attr(0).Name)
	}
	if got[0].Dict(0).Label(0) != "a" {
		t.Error("value dictionary lost")
	}
	if back.Dataset().ClassDict().Label(1) != "no" {
		t.Error("class dictionary lost")
	}
	if back.Dataset().ClassIndex() != ds.ClassIndex() {
		t.Errorf("class index = %d, want %d", back.Dataset().ClassIndex(), ds.ClassIndex())
	}
}

// TestPersistedStoreServesComparisons is the workflow test: cubes built
// offline, snapshotted, reloaded in a fresh process, and used for the
// paper's comparison without re-counting.
func TestPersistedStoreServesComparisons(t *testing.T) {
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 4, Records: 30000, NoiseAttrs: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := pinAll(t, ds)
	back := snapshotRoundTrip(t, src)

	attr := ds.AttrIndex(gt.PhoneAttr)
	v1, _ := ds.Column(attr).Dict.Lookup(gt.GoodPhone)
	v2, _ := ds.Column(attr).Dict.Lookup(gt.BadPhone)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	in := compare.Input{Attr: attr, V1: v1, V2: v2, Class: cls}

	orig, err := compare.NewSource(src).Compare(in, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := compare.NewSource(back).Compare(in, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Ranked) != len(reloaded.Ranked) {
		t.Fatal("ranking sizes differ after reload")
	}
	for i := range orig.Ranked {
		if orig.Ranked[i].Name != reloaded.Ranked[i].Name ||
			orig.Ranked[i].Score != reloaded.Ranked[i].Score {
			t.Fatalf("rank %d differs after reload: %+v vs %+v",
				i, orig.Ranked[i], reloaded.Ranked[i])
		}
	}
}
