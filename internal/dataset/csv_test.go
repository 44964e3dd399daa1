package dataset

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sampleCSV = `color,size,class
red,1.5,yes
blue,2.5,no
red,3.5,yes
green,?,no
`

func TestReadCSVBasics(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(sampleCSV), CSVOptions{
		Kinds: map[string]Kind{"size": Continuous},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 4 {
		t.Fatalf("rows = %d", ds.NumRows())
	}
	if ds.ClassIndex() != 2 {
		t.Errorf("class index = %d, want last column", ds.ClassIndex())
	}
	if ds.Attr(1).Kind != Continuous {
		t.Error("size should be continuous")
	}
	if ds.Label(3, 1) != MissingLabel {
		t.Error("missing value should survive parsing")
	}
}

func TestReadCSVNamedClass(t *testing.T) {
	csv := "class,x\nyes,a\nno,b\n"
	ds, err := ReadCSV(strings.NewReader(csv), CSVOptions{ClassAttr: "class"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.ClassIndex() != 0 {
		t.Errorf("class index = %d, want 0", ds.ClassIndex())
	}
}

func TestReadCSVUnknownClass(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(sampleCSV), CSVOptions{ClassAttr: "nope"}); err == nil {
		t.Error("unknown class attribute should fail")
	}
}

func TestReadCSVSniffing(t *testing.T) {
	// A numeric column with many distinct values sniffs continuous; a
	// numeric column with a tiny domain sniffs categorical.
	var sb strings.Builder
	sb.WriteString("many,few,class\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "%.2f,%d,c%d\n", float64(i)+0.5, i%2, i%2)
	}
	ds, err := ReadCSV(strings.NewReader(sb.String()), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attr(0).Kind != Continuous {
		t.Error("high-cardinality numeric column should sniff continuous")
	}
	if ds.Attr(1).Kind != Categorical {
		t.Error("low-cardinality numeric column should sniff categorical")
	}
}

func TestReadCSVSniffRespectsOverride(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("many,class\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "%.2f,c%d\n", float64(i)+0.5, i%2)
	}
	ds, err := ReadCSV(strings.NewReader(sb.String()), CSVOptions{
		Kinds: map[string]Kind{"many": Categorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attr(0).Kind != Categorical {
		t.Error("explicit Kinds override must win over sniffing")
	}
}

func TestReadCSVRaggedRow(t *testing.T) {
	csv := "a,b,class\nx,y\n"
	if _, err := ReadCSV(strings.NewReader(csv), CSVOptions{}); err == nil {
		t.Error("ragged row should fail")
	}
}

func TestReadCSVEmptyInput(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), CSVOptions{}); err == nil {
		t.Error("empty input should fail (no header)")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(sampleCSV), CSVOptions{
		Kinds: map[string]Kind{"size": Continuous},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), CSVOptions{
		Kinds: map[string]Kind{"size": Continuous},
	})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != ds.NumRows() {
		t.Fatalf("round trip rows %d != %d", back.NumRows(), ds.NumRows())
	}
	for r := 0; r < ds.NumRows(); r++ {
		for a := 0; a < ds.NumAttrs(); a++ {
			if ds.Label(r, a) != back.Label(r, a) {
				t.Fatalf("cell (%d,%d): %q != %q", r, a, ds.Label(r, a), back.Label(r, a))
			}
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(sampleCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := WriteCSVFile(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != ds.NumRows() {
		t.Error("file round trip lost rows")
	}
	if _, err := ReadCSVFile(filepath.Join(t.TempDir(), "missing.csv"), CSVOptions{}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestReadCSVCustomSeparator(t *testing.T) {
	csv := "a;class\nx;yes\n"
	ds, err := ReadCSV(strings.NewReader(csv), CSVOptions{Comma: ';'})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Label(0, 0) != "x" {
		t.Error("semicolon separator not honored")
	}
}

// TestReadCSVLabelsDoNotPinRecords checks that dictionary labels are
// copies: encoding/csv slices every field of a record out of one string,
// so a label kept as such a slice would keep its whole record alive.
// Each record here carries a 64 KiB number in a declared-continuous
// column beside two short labels that are new in every row.
func TestReadCSVLabelsDoNotPinRecords(t *testing.T) {
	const rows = 64
	pad := strings.Repeat("0", 64<<10) + "1"
	var sb strings.Builder
	sb.WriteString("pad,a,class\n")
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&sb, "%s,a%d,c%d\n", pad, r, r)
	}
	input := sb.String()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds, err := ReadCSV(strings.NewReader(input), CSVOptions{Kinds: map[string]Kind{"pad": Continuous}})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if ds.NumRows() != rows || ds.Cardinality(1) != rows {
		t.Fatalf("loaded %d rows with %d labels, want %d and %d", ds.NumRows(), ds.Cardinality(1), rows, rows)
	}
	// The records total 4 MiB; the dataset itself is a few KiB.
	if retained > 1<<20 {
		t.Errorf("loaded dataset retains %d bytes, want under 1 MiB: labels pin their records", retained)
	}
	runtime.KeepAlive(ds)
	runtime.KeepAlive(input)
}
