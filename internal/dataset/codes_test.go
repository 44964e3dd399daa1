package dataset_test

import (
	"bytes"
	"fmt"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/discretize"
)

// checkWidths fails unless every categorical column of ds stores
// exactly one byte per row while its dictionary has at most
// dataset.MaxNarrowLabels labels and four bytes per row otherwise.
func checkWidths(t *testing.T, ds *dataset.Dataset, step string) {
	t.Helper()
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.Column(i)
		if col.Kind != dataset.Categorical {
			continue
		}
		want := 1
		if col.Dict.Len() > dataset.MaxNarrowLabels {
			want = 4
		}
		stored := len(col.Codes.Narrow()) + 4*len(col.Codes.Wide())
		if col.Codes.Width() != want || stored != want*ds.NumRows() {
			t.Errorf("%s: %s (%d labels) stores %d bytes for %d rows at width %d, want %d bytes per row",
				step, ds.Attr(i).Name, col.Dict.Len(), stored, ds.NumRows(), col.Codes.Width(), want)
		}
	}
}

// widthsOf lists each categorical column's bytes per row (0 for a
// continuous column).
func widthsOf(ds *dataset.Dataset) []int {
	out := make([]int, ds.NumAttrs())
	for i := range out {
		if col := ds.Column(i); col.Kind == dataset.Categorical {
			out[i] = col.Codes.Width()
		}
	}
	return out
}

// labelsCSV is a CSV whose column "a" takes n distinct labels, prefix
// followed by a number, over 2n rows (with a missing value every 7th
// row) beside a two-class class column.
func labelsCSV(prefix string, n int) []byte {
	var b bytes.Buffer
	b.WriteString("a,class\n")
	for r := 0; r < 2*n; r++ {
		a := fmt.Sprintf("%s%d", prefix, r%n)
		if r%7 == 3 {
			a = dataset.MissingLabel
		}
		fmt.Fprintf(&b, "%s,c%d\n", a, r%2)
	}
	return b.Bytes()
}

// TestNarrowCodeWidths pins the column layout: on a CSV shaped like
// the serving benchmark's (the TestReadCSVMatchesReference fixture),
// every categorical column, and every continuous column once binned by
// Discretize, stores one byte per row; a column with 256 labels
// stores four; Gather, Duplicate, Filter, SelectAttrs and the
// UnionDicts/AppendRemapped merge that Session.MergeFrom runs keep each
// column's width, and a union that takes a dictionary past 255 labels
// widens that column.
func TestNarrowCodeWidths(t *testing.T) {
	ds, err := dataset.ReadCSV(bytes.NewReader(servingCSV(t, 9, 4000)), dataset.CSVOptions{ClassAttr: "Disposition"})
	if err != nil {
		t.Fatal(err)
	}
	checkWidths(t, ds, "ReadCSV")
	work, _, err := discretize.Apply(ds, discretize.MDLP{})
	if err != nil {
		t.Fatal(err)
	}
	if !work.AllCategorical() {
		t.Fatal("Discretize left a continuous column")
	}
	checkWidths(t, work, "Discretize")
	for i, w := range widthsOf(work) {
		if w != 1 {
			t.Errorf("Discretize: %s is %d bytes per row, want 1", work.Attr(i).Name, w)
		}
	}

	for _, n := range []int{dataset.MaxNarrowLabels, dataset.MaxNarrowLabels + 1} {
		ds, err := dataset.ReadCSV(bytes.NewReader(labelsCSV("l", n)), dataset.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ds.Cardinality(0) != n {
			t.Fatalf("a has %d labels, want %d", ds.Cardinality(0), n)
		}
		checkWidths(t, ds, fmt.Sprintf("%d labels", n))
	}

	wide, err := dataset.ReadCSV(bytes.NewReader(labelsCSV("l", 300)), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*dataset.Dataset{work, wide} {
		want := widthsOf(src)
		half := src.Filter(func(r int) bool { return r%2 == 0 })
		derived := map[string]*dataset.Dataset{
			"Gather":    src.Gather([]int{3, 1, 4, 1, 5}),
			"Duplicate": src.Duplicate(2),
			"Filter":    half,
		}
		sel, err := src.SelectAttrs([]int{0})
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range derived {
			if got := widthsOf(d); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: widths %v, source %v", name, got, want)
			}
		}
		if got := widthsOf(sel); got[0] != want[0] {
			t.Errorf("SelectAttrs: width %d, source %d", got[0], want[0])
		}
		merged := src.Filter(func(r int) bool { return r%2 == 1 })
		rm, err := merged.UnionDicts(half)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.AppendRemapped(half, rm); err != nil {
			t.Fatal(err)
		}
		if got := widthsOf(merged); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("UnionDicts+AppendRemapped: widths %v, source %v", got, want)
		}
	}

	// Two narrow shards whose labels union to 300: the merge widens.
	lo, err := dataset.ReadCSV(bytes.NewReader(labelsCSV("l", 150)), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := dataset.ReadCSV(bytes.NewReader(labelsCSV("h", 150)), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := lo.UnionDicts(hi)
	if err != nil {
		t.Fatal(err)
	}
	if !lo.Column(0).Codes.IsWide() {
		t.Error("a union to 300 labels left the column narrow")
	}
	if err := lo.AppendRemapped(hi, rm); err != nil {
		t.Fatal(err)
	}
	checkWidths(t, lo, "merge past 255 labels")
	if got, want := lo.Label(lo.NumRows()-1, 0), hi.Label(hi.NumRows()-1, 0); got != want {
		t.Errorf("merged last row reads %q, want %q", got, want)
	}
}

// FuzzAppendWiden appends a label stream to a dataset in batches, each
// loaded on its own and merged through UnionDicts + AppendRemapped (the
// path a session appends by), and checks the result against one
// Builder load of the same rows: equal codes through At and equal
// dictionaries, each column narrow exactly while its dictionary has at
// most 255 labels. Each label byte is a fresh label (below 128), one
// of 127 reused labels (128..254) or missing (255); each split byte
// sizes a batch ((b&63)+1 rows).
func FuzzAppendWiden(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0}, 255), []byte{63, 63, 63, 63, 63})
	f.Add(bytes.Repeat([]byte{0}, 256), []byte{63 | 64, 63, 63 | 64, 63})
	f.Add(append(bytes.Repeat([]byte{1, 200}, 200), 255, 255), []byte{10, 64 | 3, 40, 64 | 63})
	f.Add([]byte{130, 255, 3, 130}, []byte{0})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, labels, splits []byte) {
		if len(splits) == 0 {
			splits = []byte{63}
		}
		rows := make([][]string, len(labels))
		for r, b := range labels {
			a := dataset.MissingLabel
			switch {
			case b < 128:
				a = fmt.Sprintf("f%d", r)
			case b < 255:
				a = fmt.Sprintf("r%d", b-128)
			}
			rows[r] = []string{a, fmt.Sprintf("c%d", b%3)}
		}
		schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "a"}, {Name: "class"}}, ClassIndex: 1}
		load := func(rows [][]string) *dataset.Dataset {
			b, err := dataset.NewBuilder(schema)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				if err := b.AddRow(row); err != nil {
					t.Fatal(err)
				}
			}
			ds, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}
		want := load(rows)
		got := load(nil)
		for r, s := 0, 0; r < len(rows); s++ {
			split := splits[s%len(splits)]
			batch := rows[r:min(r+int(split&63)+1, len(rows))]
			r += len(batch)
			src := load(batch)
			rm, err := got.UnionDicts(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.AppendRemapped(src, rm); err != nil {
				t.Fatal(err)
			}
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("%d rows, want %d", got.NumRows(), want.NumRows())
		}
		for i := 0; i < want.NumAttrs(); i++ {
			g, w := got.Column(i), want.Column(i)
			if fmt.Sprint(g.Dict.Labels()) != fmt.Sprint(w.Dict.Labels()) {
				t.Fatalf("%s: labels differ from one Builder load", want.Attr(i).Name)
			}
			for r := 0; r < want.NumRows(); r++ {
				if g.Codes.At(r) != w.Codes.At(r) {
					t.Fatalf("%s row %d: code %d, one Builder load has %d", want.Attr(i).Name, r, g.Codes.At(r), w.Codes.At(r))
				}
			}
		}
		checkWidths(t, got, "appended")
		checkWidths(t, want, "one Builder load")
	})
}
