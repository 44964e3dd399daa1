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

// TestReadCSVErrorText pins the text of every kind of load error, on
// lines the loader splits itself and on lines past the first '"', where
// encoding/csv reads the stream: a field-count mismatch, a bare or
// unterminated quote, a declared-numeric parse failure, MaxRecordBytes,
// MaxRows and MaxColumns, each naming the line encoding/csv alone
// would.
func TestReadCSVErrorText(t *testing.T) {
	cases := []struct {
		name string
		csv  string
		opts CSVOptions
		want string
	}{
		{"field count", "a,b,class\nx,1,yes\ny,2\n", CSVOptions{},
			"dataset: reading CSV data row 2: record on line 3: wrong number of fields"},
		{"field count after blank lines", "a,b,class\r\n\r\nx,1,yes\n\ny,2,no,3\n", CSVOptions{},
			"dataset: reading CSV data row 2: record on line 5: wrong number of fields"},
		{"field count after handoff", "a,b,class\nx,1,yes\n\"y\",2,no\nz,3\n", CSVOptions{},
			"dataset: reading CSV data row 3: record on line 4: wrong number of fields"},
		{"field count after multiline field", "a,b,class\nx,1,yes\n\"y\nw\",2,no\n\nz,3\n", CSVOptions{},
			"dataset: reading CSV data row 3: record on line 6: wrong number of fields"},
		{"header field count", "\"a\",b,class\nx,1\n", CSVOptions{},
			"dataset: reading CSV data row 1: record on line 2: wrong number of fields"},
		{"bare quote", "a,b,class\nx,1,yes\ny,2,no\nz,3\"x,yes\n", CSVOptions{},
			"dataset: reading CSV data row 3: parse error on line 4, column 4: bare \" in non-quoted-field"},
		{"bare quote in header", "\n\na,b\"c,class\nx,1,yes\n", CSVOptions{},
			"dataset: reading CSV header: parse error on line 3, column 4: bare \" in non-quoted-field"},
		{"bare quote after multiline field", "a,b,class\n\"x\ny\",1,yes\nz,3\"x,yes\n", CSVOptions{},
			"dataset: reading CSV data row 2: parse error on line 4, column 4: bare \" in non-quoted-field"},
		{"unterminated quote", "a,b,class\nx,1,yes\n\"y,2,no\n", CSVOptions{},
			"dataset: reading CSV data row 2: parse error on line 3, column 9: extraneous or missing \" in quoted-field"},
		{"declared numeric", "a,b,class\nx,1,yes\ny,abc,no\n", CSVOptions{Kinds: map[string]Kind{"b": Continuous}},
			"dataset: CSV line 3: attribute \"b\": cannot parse \"abc\" as number: strconv.ParseFloat: parsing \"abc\": invalid syntax"},
		{"declared numeric after handoff", "a,b,class\n\"x\ny\",1,yes\n\nw, abc ,no\n", CSVOptions{Kinds: map[string]Kind{"b": Continuous}},
			"dataset: CSV line 5: attribute \"b\": cannot parse \"abc\" as number: strconv.ParseFloat: parsing \"abc\": invalid syntax"},
		{"record bytes", "a,b,class\nx,1,yes\ny," + strings.Repeat("v", 60) + ",no\n", CSVOptions{MaxRecordBytes: 50},
			"dataset: CSV record at line 3 exceeds 50 bytes"},
		{"record bytes after handoff", "a,b,class\n\"x\",1,yes\n\ny," + strings.Repeat("v", 60) + ",no\n", CSVOptions{MaxRecordBytes: 50},
			"dataset: CSV record at line 4 exceeds 50 bytes"},
		{"header bytes", strings.Repeat("h", 60) + ",class\nx,yes\n", CSVOptions{MaxRecordBytes: 50},
			"dataset: CSV record at line 1 exceeds 50 bytes"},
		{"rows", "a,b,class\nx,1,yes\ny,2,no\nz,3,yes\n", CSVOptions{MaxRows: 2},
			"dataset: CSV exceeds 2 data rows"},
		{"rows after handoff", "a,b,class\nx,1,yes\n\"y\",2,no\nz,3,yes\n", CSVOptions{MaxRows: 2},
			"dataset: CSV exceeds 2 data rows"},
		{"field count before rows", "a,b,class\nx,1,yes\ny,2,no\nz,3\n", CSVOptions{MaxRows: 2},
			"dataset: reading CSV data row 3: record on line 4: wrong number of fields"},
		{"empty", "", CSVOptions{},
			"dataset: reading CSV header: EOF"},
		{"blank only", "\n\r\n\r", CSVOptions{},
			"dataset: reading CSV header: EOF"},
		{"invalid comma", "a,b,class\nx,1,yes\n", CSVOptions{Comma: '\n'},
			"dataset: reading CSV header: csv: invalid field or comment delimiter"},
		{"columns", "a,b,class\nx,1,yes\n", CSVOptions{MaxColumns: 2},
			"dataset: CSV header has 3 columns, limit is 2"},
	}
	for _, tc := range cases {
		_, err := ReadCSV(strings.NewReader(tc.csv), tc.opts)
		if err == nil {
			t.Errorf("%s: loaded, want error %q", tc.name, tc.want)
		} else if err.Error() != tc.want {
			t.Errorf("%s: error\n%q\nwant\n%q", tc.name, err, tc.want)
		}
	}
}
