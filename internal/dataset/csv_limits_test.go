package dataset

import (
	"strings"
	"testing"
)

const limitsCSV = "a,b,class\nx,1,yes\ny,2,no\nz,3,yes\n"

func TestReadCSVMaxRows(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(limitsCSV), CSVOptions{MaxRows: 2}); err == nil {
		t.Fatal("MaxRows=2 accepted 3 data rows")
	} else if !strings.Contains(err.Error(), "exceeds 2 data rows") {
		t.Errorf("error %q does not name the row limit", err)
	}
	// The limit counts data rows, not the header: exactly MaxRows is fine.
	ds, err := ReadCSV(strings.NewReader(limitsCSV), CSVOptions{MaxRows: 3})
	if err != nil {
		t.Fatalf("MaxRows=3 rejected a 3-row file: %v", err)
	}
	if ds.NumRows() != 3 {
		t.Errorf("NumRows = %d, want 3", ds.NumRows())
	}
}

func TestReadCSVMaxColumns(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(limitsCSV), CSVOptions{MaxColumns: 2}); err == nil {
		t.Fatal("MaxColumns=2 accepted a 3-column header")
	} else if !strings.Contains(err.Error(), "3 columns, limit is 2") {
		t.Errorf("error %q does not name the column limit", err)
	}
	if _, err := ReadCSV(strings.NewReader(limitsCSV), CSVOptions{MaxColumns: 3}); err != nil {
		t.Fatalf("MaxColumns=3 rejected a 3-column file: %v", err)
	}
}

func TestReadCSVMaxRecordBytes(t *testing.T) {
	wide := "a,b,class\nx," + strings.Repeat("v", 100) + ",yes\ny,2,no\n"
	if _, err := ReadCSV(strings.NewReader(wide), CSVOptions{MaxRecordBytes: 50}); err == nil {
		t.Fatal("MaxRecordBytes=50 accepted a ~100-byte record")
	} else if !strings.Contains(err.Error(), "line 2 exceeds 50 bytes") {
		t.Errorf("error %q does not locate the oversized record", err)
	}
	// The header is subject to the same bound.
	bigHeader := strings.Repeat("h", 100) + ",class\nx,yes\n"
	if _, err := ReadCSV(strings.NewReader(bigHeader), CSVOptions{MaxRecordBytes: 50}); err == nil {
		t.Fatal("MaxRecordBytes=50 accepted a ~100-byte header")
	} else if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error %q does not point at the header line", err)
	}
}

// TestReadCSVLimitsZeroUnlimited pins the default: zero limits change
// nothing.
func TestReadCSVLimitsZeroUnlimited(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(limitsCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 3 || ds.NumAttrs() != 3 {
		t.Errorf("dataset shape = %d rows × %d attrs, want 3×3", ds.NumRows(), ds.NumAttrs())
	}
}

// TestReadCSVErrorLineAfterMultilineField pins the line a per-record
// error names: the line the record starts on, counted past a quoted
// field that spans lines, not the data row number plus one.
func TestReadCSVErrorLineAfterMultilineField(t *testing.T) {
	// Data row 1 spans lines 2–4; data row 2 starts on line 5.
	const head = "a,b,class\n\"x\ny\nz\",1,yes\n"
	wide := head + "w," + strings.Repeat("v", 100) + ",no\n"
	if _, err := ReadCSV(strings.NewReader(wide), CSVOptions{MaxRecordBytes: 50}); err == nil {
		t.Fatal("MaxRecordBytes=50 accepted a ~100-byte record")
	} else if !strings.Contains(err.Error(), "line 5 exceeds 50 bytes") {
		t.Errorf("error %q does not locate the oversized record on line 5", err)
	}
	bad := head + "w,abc,no\n"
	_, err := ReadCSV(strings.NewReader(bad), CSVOptions{Kinds: map[string]Kind{"b": Continuous}})
	if err == nil {
		t.Fatal("a non-number in a declared continuous column was accepted")
	}
	if !strings.Contains(err.Error(), "line 5") || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("error %q does not name line 5 and attribute b", err)
	}
}
