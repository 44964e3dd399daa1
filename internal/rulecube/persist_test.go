package rulecube_test

import (
	"bytes"
	"testing"

	"opmap/internal/compare"
	"opmap/internal/dataset"
	"opmap/internal/rulecube"
	"opmap/internal/workload"
)

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

func TestStoreRoundTrip(t *testing.T) {
	ds := fig1Dataset(t)
	store, err := rulecube.BuildStore(ds, rulecube.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rulecube.WriteStore(&buf, store); err != nil {
		t.Fatal(err)
	}
	back, err := rulecube.ReadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.CubeCount() != store.CubeCount() {
		t.Fatalf("cube count %d != %d", back.CubeCount(), store.CubeCount())
	}
	// Every cell of every cube survives.
	for _, a := range store.Attrs() {
		orig := store.Cube1(a)
		got := back.Cube1(a)
		if got == nil {
			t.Fatalf("cube %d missing after round trip", a)
		}
		orig.ForEach(func(values []int32, class int32, count int64) {
			n, err := got.Count(values, class)
			if err != nil {
				t.Fatal(err)
			}
			if n != count {
				t.Fatalf("cube %d cell %v/%d: %d != %d", a, values, class, n, count)
			}
		})
		if got.Total() != orig.Total() {
			t.Fatalf("cube %d total changed", a)
		}
	}
	pair := store.Cube2(0, 1)
	gotPair := back.Cube2(0, 1)
	if gotPair == nil {
		t.Fatal("pair cube missing")
	}
	pair.ForEach(func(values []int32, class int32, count int64) {
		n, err := gotPair.Count(values, class)
		if err != nil {
			t.Fatal(err)
		}
		if n != count {
			t.Fatalf("pair cell %v/%d: %d != %d", values, class, n, count)
		}
	})
	// Metadata survives: names, dictionaries, class labels.
	if back.Dataset().Attr(0).Name != "A1" {
		t.Errorf("attr name = %q", back.Dataset().Attr(0).Name)
	}
	if back.Cube1(0).Dict(0).Label(0) != "a" {
		t.Error("value dictionary lost")
	}
	if back.Dataset().ClassDict().Label(1) != "no" {
		t.Error("class dictionary lost")
	}
	if back.Dataset().ClassIndex() != ds.ClassIndex() {
		t.Errorf("class index = %d, want %d", back.Dataset().ClassIndex(), ds.ClassIndex())
	}
}

func TestReadStoreDetectsCorruption(t *testing.T) {
	ds := fig1Dataset(t)
	store, err := rulecube.BuildStore(ds, rulecube.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rulecube.WriteStore(&buf, store); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	if _, err := rulecube.ReadStore(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted magic accepted")
	}
	// Flipped byte in the body → CRC mismatch (or structural error).
	bad = append([]byte{}, good...)
	bad[len(bad)/2] ^= 0x01
	if _, err := rulecube.ReadStore(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted body accepted")
	}
	// Truncation.
	if _, err := rulecube.ReadStore(bytes.NewReader(good[:len(good)-6])); err == nil {
		t.Error("truncated stream accepted")
	}
	// Flipped CRC trailer.
	bad = append([]byte{}, good...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := rulecube.ReadStore(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted CRC accepted")
	}
}

// TestPersistedStoreServesComparisons is the workflow test: cubes built
// offline, saved, reloaded in a fresh process, and used for the paper's
// comparison — without the raw data.
func TestPersistedStoreServesComparisons(t *testing.T) {
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 4, Records: 30000, NoiseAttrs: 2})
	if err != nil {
		t.Fatal(err)
	}
	store, err := rulecube.BuildStore(ds, rulecube.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rulecube.WriteStore(&buf, store); err != nil {
		t.Fatal(err)
	}
	back, err := rulecube.ReadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	attr := ds.AttrIndex(gt.PhoneAttr)
	v1, _ := ds.Column(attr).Dict.Lookup(gt.GoodPhone)
	v2, _ := ds.Column(attr).Dict.Lookup(gt.BadPhone)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	in := compare.Input{Attr: attr, V1: v1, V2: v2, Class: cls}

	orig, err := compare.New(store).Compare(in, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := compare.New(back).Compare(in, compare.Options{})
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
