package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// readCSVReference is the buffering CSV loader ReadCSV replaced, kept
// verbatim as the differential oracle: it holds every record as a
// []string until EOF, decides each undeclared column's kind with
// sniffKind over the whole column, then runs one Builder pass. ReadCSV
// must error exactly when this errors and otherwise return an equal
// dataset (same kinds, dictionaries in the same code order, same codes,
// same float bits).
func readCSVReference(r io.Reader, opts CSVOptions) (*Dataset, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if opts.MaxColumns > 0 && len(header) > opts.MaxColumns {
		return nil, fmt.Errorf("dataset: CSV header has %d columns, limit is %d", len(header), opts.MaxColumns)
	}
	if err := checkRecordBytes(header, 1, opts.MaxRecordBytes); err != nil {
		return nil, err
	}
	names := make([]string, len(header))
	for i, h := range header {
		names[i] = strings.TrimSpace(h)
	}

	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", len(rows)+2, err)
		}
		if opts.MaxRows > 0 && len(rows) >= opts.MaxRows {
			return nil, fmt.Errorf("dataset: CSV exceeds %d data rows", opts.MaxRows)
		}
		if err := checkRecordBytes(rec, len(rows)+2, opts.MaxRecordBytes); err != nil {
			return nil, err
		}
		row := make([]string, len(rec))
		for i, v := range rec {
			row[i] = strings.TrimSpace(v)
		}
		if len(row) != len(names) {
			return nil, fmt.Errorf("dataset: CSV row %d has %d fields, header has %d", len(rows)+2, len(row), len(names))
		}
		rows = append(rows, row)
	}

	classIdx := len(names) - 1
	if opts.ClassAttr != "" {
		classIdx = -1
		for i, n := range names {
			if n == opts.ClassAttr {
				classIdx = i
				break
			}
		}
		if classIdx < 0 {
			return nil, fmt.Errorf("dataset: class attribute %q not found in CSV header", opts.ClassAttr)
		}
	}

	maxCard := opts.MaxSniffCardinality
	if maxCard == 0 {
		maxCard = 32
	}
	attrs := make([]Attribute, len(names))
	for i, n := range names {
		kind := Categorical
		if k, ok := opts.Kinds[n]; ok {
			kind = k
		} else if i != classIdx {
			kind = sniffKind(rows, i, maxCard)
		}
		if i == classIdx {
			kind = Categorical
		}
		attrs[i] = Attribute{Name: n, Kind: kind}
	}

	b, err := NewBuilder(Schema{Attrs: attrs, ClassIndex: classIdx})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := b.AddRow(row); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

func sniffKind(rows [][]string, col, maxCard int) Kind {
	distinct := make(map[string]struct{})
	numeric := true
	for _, row := range rows {
		v := row[col]
		if v == MissingLabel || v == "" {
			continue
		}
		if numeric {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				numeric = false
			}
		}
		if len(distinct) <= maxCard {
			distinct[v] = struct{}{}
		}
		if !numeric && len(distinct) > maxCard {
			break
		}
	}
	if numeric && len(distinct) > maxCard {
		return Continuous
	}
	return Categorical
}

// diffDatasets returns "" when got and want are the same dataset — same
// schema and row count, same kind per column, dictionaries with the
// same labels in the same code order, equal codes and bit-identical
// float values (NaN included) — and otherwise the first difference.
func diffDatasets(got, want *Dataset) string {
	if got.rows != want.rows {
		return fmt.Sprintf("rows %d, want %d", got.rows, want.rows)
	}
	if got.schema.ClassIndex != want.schema.ClassIndex {
		return fmt.Sprintf("class index %d, want %d", got.schema.ClassIndex, want.schema.ClassIndex)
	}
	if !slices.Equal(got.schema.Attrs, want.schema.Attrs) {
		return fmt.Sprintf("attributes %v, want %v", got.schema.Attrs, want.schema.Attrs)
	}
	for i := range want.cols {
		g, w := &got.cols[i], &want.cols[i]
		name := want.schema.Attrs[i].Name
		if g.Kind != w.Kind {
			return fmt.Sprintf("column %q kind %v, want %v", name, g.Kind, w.Kind)
		}
		if (g.Dict == nil) != (w.Dict == nil) {
			return fmt.Sprintf("column %q has dictionary %v, want %v", name, g.Dict != nil, w.Dict != nil)
		}
		if w.Dict != nil {
			if !slices.Equal(g.Dict.Labels(), w.Dict.Labels()) {
				return fmt.Sprintf("column %q labels %q, want %q", name, g.Dict.Labels(), w.Dict.Labels())
			}
			for c, l := range g.Dict.Labels() {
				if code, ok := g.Dict.Lookup(l); !ok || code != int32(c) {
					return fmt.Sprintf("column %q label %q looks up as %d, want %d", name, l, code, c)
				}
			}
		}
		if gc, wc := g.Codes.Int32s(), w.Codes.Int32s(); !slices.Equal(gc, wc) {
			return fmt.Sprintf("column %q codes %v, want %v", name, gc, wc)
		}
		if len(g.Values) != len(w.Values) {
			return fmt.Sprintf("column %q has %d values, want %d", name, len(g.Values), len(w.Values))
		}
		for r := range w.Values {
			if math.Float64bits(g.Values[r]) != math.Float64bits(w.Values[r]) {
				return fmt.Sprintf("column %q row %d value %v, want %v", name, r, g.Values[r], w.Values[r])
			}
		}
	}
	return ""
}
