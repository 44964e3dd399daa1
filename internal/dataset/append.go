package dataset

import "fmt"

// This file gives a built Dataset an append path for streaming
// ingestion. Appends are not safe for use concurrent with reads; the
// Session layer serializes them behind its ingest lock.

// AppendRow appends one row of textual values, one per attribute, with
// exactly Builder.AddRow's semantics: "?" is a missing categorical
// value or continuous NaN, unseen categorical labels register new
// dictionary codes, continuous fields parse as numbers. The row is
// fully validated before anything mutates, so a malformed row leaves
// the dataset untouched. A narrow column whose dictionary this row
// takes past MaxNarrowLabels is widened before its code is stored.
func (ds *Dataset) AppendRow(values []string) error {
	if ds.base != nil {
		return fmt.Errorf("dataset: AppendRow on a derived dataset; append to its base and AppendCodedRow the binned codes")
	}
	if len(values) != len(ds.cols) {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(values), len(ds.cols))
	}
	// Validate pass: parse every continuous field first.
	floats := make([]float64, len(values))
	for i := range ds.cols {
		if ds.cols[i].Kind != Continuous {
			continue
		}
		f, err := ParseContinuous(values[i])
		if err != nil {
			return fmt.Errorf("dataset: attribute %q: cannot parse %q as number: %v", ds.schema.Attrs[i].Name, values[i], err)
		}
		floats[i] = f
	}
	// Mutate pass: nothing below can fail.
	for i := range ds.cols {
		c := &ds.cols[i]
		if c.Kind == Categorical {
			if values[i] == MissingLabel {
				c.appendCode(Missing)
			} else {
				c.appendCode(c.Dict.Code(values[i]))
			}
			continue
		}
		c.Values = append(c.Values, floats[i])
	}
	ds.rows++
	return nil
}

// AppendCodedRow appends a row of pre-encoded values: codes[i] is used
// for categorical attributes, values[i] for continuous ones (values may
// be nil when every attribute is categorical). Codes must already be
// registered — this path never grows a dictionary, so the caller
// controls exactly when domains change; a column whose dictionary the
// caller has grown past MaxNarrowLabels is widened before the row is
// stored. On a derived dataset (Derive) the base must already hold the
// row: each shared column takes the base's grown codes, which must
// equal codes[i].
func (ds *Dataset) AppendCodedRow(codes []int32, values []float64) error {
	if len(codes) != len(ds.cols) || (values != nil && len(values) != len(ds.cols)) {
		return fmt.Errorf("dataset: coded row width mismatch")
	}
	for i := range ds.cols {
		c := &ds.cols[i]
		if ds.shared(i) {
			base := &ds.base.cols[i].Codes
			if base.Len() != ds.rows+1 || base.At(ds.rows) != max(codes[i], Missing) {
				return fmt.Errorf("dataset: attribute %q is shared with the base dataset, which must hold the row first", ds.schema.Attrs[i].Name)
			}
			continue
		}
		if c.Kind == Categorical {
			code := codes[i]
			if code >= 0 && int(code) >= c.Dict.Len() {
				return fmt.Errorf("dataset: attribute %q: code %d beyond dictionary size %d", ds.schema.Attrs[i].Name, code, c.Dict.Len())
			}
			continue
		}
		if values == nil {
			return fmt.Errorf("dataset: attribute %q is continuous but no values were given", ds.schema.Attrs[i].Name)
		}
	}
	for i := range ds.cols {
		c := &ds.cols[i]
		switch {
		case ds.shared(i):
			c.Codes = ds.base.cols[i].Codes // validated above: one row ahead
		case c.Kind == Categorical:
			c.appendCode(codes[i])
		default:
			c.Values = append(c.Values, values[i])
		}
	}
	ds.rows++
	return nil
}
