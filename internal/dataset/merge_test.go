package dataset

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestDictionaryUnion(t *testing.T) {
	dst := DictionaryOf("a", "b", "c")
	src := DictionaryOf("c", "x", "a")
	remap := dst.Union(src)
	if want := []int32{2, 3, 0}; !reflect.DeepEqual(remap, want) {
		t.Fatalf("remap = %v, want %v", remap, want)
	}
	if want := []string{"a", "b", "c", "x"}; !reflect.DeepEqual(dst.Labels(), want) {
		t.Fatalf("labels = %v, want %v", dst.Labels(), want)
	}
	// src untouched.
	if want := []string{"c", "x", "a"}; !reflect.DeepEqual(src.Labels(), want) {
		t.Fatalf("src labels mutated: %v", src.Labels())
	}
	// Idempotent: a second union returns the same remap without growth.
	again := dst.Union(src)
	if !reflect.DeepEqual(again, remap) {
		t.Fatalf("second union remap = %v, want %v", again, remap)
	}
	if dst.Len() != 4 {
		t.Fatalf("second union grew dictionary to %d", dst.Len())
	}
}

// TestDictionaryUnionClonesLabels checks that a label Union registers
// does not share memory with the source's label: a batch's labels are
// substrings of a request body or WAL record, which the session's
// dictionary must not keep alive.
func TestDictionaryUnionClonesLabels(t *testing.T) {
	body := strings.Repeat("x", 64) + "fresh,known"
	src := DictionaryOf(body[64:69], body[70:])
	dst := DictionaryOf("known")
	if remap := dst.Union(src); !reflect.DeepEqual(remap, []int32{1, 0}) {
		t.Fatalf("remap = %v, want [1 0]", remap)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	for c := int32(0); c < int32(dst.Len()); c++ {
		l := dst.Label(c)
		if p := uintptr(unsafe.Pointer(unsafe.StringData(l))); p >= lo && p < lo+uintptr(len(body)) {
			t.Errorf("label %q shares memory with the source string", l)
		}
	}
}

func TestDictionaryUnionNilAndEmpty(t *testing.T) {
	dst := DictionaryOf("a")
	if rm := dst.Union(nil); rm != nil {
		t.Fatalf("nil src remap = %v", rm)
	}
	if rm := dst.Union(NewDictionary()); len(rm) != 0 {
		t.Fatalf("empty src remap = %v", rm)
	}
}

func TestRemapIsIdentity(t *testing.T) {
	if !RemapIsIdentity(nil) {
		t.Fatal("nil remap should be identity")
	}
	if !RemapIsIdentity([]int32{0, 1, 2}) {
		t.Fatal("0,1,2 should be identity")
	}
	if RemapIsIdentity([]int32{0, 2, 1}) {
		t.Fatal("0,2,1 should not be identity")
	}
}

// mergeTestDataset builds a small two-attribute categorical dataset
// from textual rows "val,class".
func mergeTestDataset(t *testing.T, rows ...string) *Dataset {
	t.Helper()
	b, err := NewBuilder(Schema{
		Attrs:      []Attribute{{Name: "v", Kind: Categorical}, {Name: "class", Kind: Categorical}},
		ClassIndex: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := b.AddRow(strings.Split(r, ",")); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestUnionDictsAndAppendRemapped(t *testing.T) {
	dst := mergeTestDataset(t, "a,yes", "b,no")
	src := mergeTestDataset(t, "c,no", "a,maybe", "?,yes")
	rm, err := dst.UnionDicts(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := rm.Attr(0); !reflect.DeepEqual(got, []int32{2, 0}) {
		t.Fatalf("attr 0 remap = %v", got)
	}
	if got := rm.Attr(1); !reflect.DeepEqual(got, []int32{1, 2, 0}) {
		t.Fatalf("class remap = %v", got)
	}
	if err := dst.AppendRemapped(src, rm); err != nil {
		t.Fatal(err)
	}
	if dst.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", dst.NumRows())
	}
	// The merged dataset must equal the single-pass build over the
	// concatenated rows.
	want := mergeTestDataset(t, "a,yes", "b,no", "c,no", "a,maybe", "?,yes")
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("merged dataset differs from single-pass build:\n got %+v\nwant %+v", dst, want)
	}
}

func TestUnionDictsSchemaErrors(t *testing.T) {
	base := mergeTestDataset(t, "a,yes")
	t.Run("nil source", func(t *testing.T) {
		if _, err := base.UnionDicts(nil); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("attribute count", func(t *testing.T) {
		b, _ := NewBuilder(Schema{Attrs: []Attribute{{Name: "class", Kind: Categorical}}, ClassIndex: 0})
		one, _ := b.Build()
		if _, err := base.UnionDicts(one); err == nil || !strings.Contains(err.Error(), "attribute count") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("name mismatch names attribute", func(t *testing.T) {
		b, _ := NewBuilder(Schema{
			Attrs:      []Attribute{{Name: "w", Kind: Categorical}, {Name: "class", Kind: Categorical}},
			ClassIndex: 1,
		})
		other, _ := b.Build()
		_, err := base.UnionDicts(other)
		if err == nil || !strings.Contains(err.Error(), `"v"`) {
			t.Fatalf("err = %v, want mention of attribute \"v\"", err)
		}
	})
	t.Run("kind mismatch names attribute", func(t *testing.T) {
		b, _ := NewBuilder(Schema{
			Attrs:      []Attribute{{Name: "v", Kind: Continuous}, {Name: "class", Kind: Categorical}},
			ClassIndex: 1,
		})
		other, _ := b.Build()
		_, err := base.UnionDicts(other)
		if err == nil || !strings.Contains(err.Error(), `"v"`) || !strings.Contains(err.Error(), "kind") {
			t.Fatalf("err = %v, want kind mismatch naming \"v\"", err)
		}
	})
}

func TestAppendRemappedContinuous(t *testing.T) {
	build := func(vals ...string) *Dataset {
		b, err := NewBuilder(Schema{
			Attrs:      []Attribute{{Name: "x", Kind: Continuous}, {Name: "class", Kind: Categorical}},
			ClassIndex: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if err := b.AddRow(strings.Split(v, ",")); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	// No missing continuous values here: NaN is never DeepEqual to NaN,
	// and missing-value append is covered by the categorical tests.
	dst := build("1.5,yes")
	src := build("2.5,no", "3.5,yes")
	rm, err := dst.UnionDicts(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AppendRemapped(src, rm); err != nil {
		t.Fatal(err)
	}
	want := build("1.5,yes", "2.5,no", "3.5,yes")
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("merged continuous dataset differs:\n got %+v\nwant %+v", dst, want)
	}
}
