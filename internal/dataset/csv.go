package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"opmap/internal/atomicfile"
)

// CSVOptions controls CSV parsing into a Dataset.
type CSVOptions struct {
	// ClassAttr names the class attribute. If empty, the last column is
	// the class.
	ClassAttr string
	// Kinds optionally fixes the kind of each named attribute. Attributes
	// not listed are sniffed: a column whose values other than
	// MissingLabel and "" all parse as numbers (strconv.ParseFloat) and
	// which has more than MaxSniffCardinality distinct such values is
	// continuous, otherwise categorical.
	Kinds map[string]Kind
	// MaxSniffCardinality is the distinct-value threshold for treating a
	// numeric column as categorical anyway (e.g. small integer codes).
	// Zero means 32.
	MaxSniffCardinality int
	// Comma is the field separator; zero means ','.
	Comma rune
	// MaxRows caps the number of data rows (excluding the header);
	// exceeding it fails the load instead of growing memory without
	// bound. Zero means unlimited (trusted local files).
	MaxRows int
	// MaxColumns caps the number of header columns. Zero means
	// unlimited.
	MaxColumns int
	// MaxRecordBytes caps the byte size of any single record (sum of
	// field lengths, header included). Zero means unlimited.
	MaxRecordBytes int
}

// ReadCSV parses a header-bearing CSV stream into a Dataset in one
// streaming pass: each record is encoded into per-column state as soon
// as it is read, so no record outlives the next Read. A column's kind
// is the class's (categorical), the one Kinds declares, or else the
// sniffing rule CSVOptions.Kinds documents, decided at EOF; see
// csvColumn for how an undeclared column is held until then.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
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
	line, _ := cr.FieldPos(0)
	if err := checkRecordBytes(header, line, opts.MaxRecordBytes); err != nil {
		return nil, err
	}
	maxCard := opts.MaxSniffCardinality
	if maxCard == 0 {
		maxCard = 32
	}
	schema, cols, err := csvSchema(header, opts, maxCard)
	if err != nil {
		return nil, err
	}

	rows := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV data row %d: %w", rows+1, err)
		}
		if opts.MaxRows > 0 && rows >= opts.MaxRows {
			return nil, fmt.Errorf("dataset: CSV exceeds %d data rows", opts.MaxRows)
		}
		line, _ = cr.FieldPos(0)
		if err := checkRecordBytes(rec, line, opts.MaxRecordBytes); err != nil {
			return nil, err
		}
		for i, v := range rec {
			if err := cols[i].add(strings.TrimSpace(v), maxCard); err != nil {
				return nil, fmt.Errorf("dataset: CSV line %d: attribute %q: %w", line, schema.Attrs[i].Name, err)
			}
		}
		rows++
	}

	ds := &Dataset{schema: schema, cols: make([]Column, len(cols)), rows: rows}
	for i := range cols {
		c := &cols[i]
		switch c.state {
		case colCategorical, colSniffing:
			ds.cols[i] = Column{Kind: Categorical, Codes: c.codes, Dict: c.dict}
		case colNumeric:
			schema.Attrs[i].Kind = Continuous
			ds.cols[i] = Column{Kind: Continuous, Values: c.values}
		case colDeclared:
			ds.cols[i] = Column{Kind: schema.Attrs[i].Kind, Values: c.values}
		}
	}
	return ds, nil
}

// csvSchema checks the trimmed header (class lookup, then
// Schema.Validate) before any data row is read, and returns the schema
// with every undeclared column provisionally categorical plus each
// column's starting state.
func csvSchema(header []string, opts CSVOptions, maxCard int) (Schema, []csvColumn, error) {
	attrs := make([]Attribute, len(header))
	for i, h := range header {
		attrs[i].Name = strings.TrimSpace(h)
	}
	classIdx := len(attrs) - 1
	if opts.ClassAttr != "" {
		classIdx = -1
		for i, a := range attrs {
			if a.Name == opts.ClassAttr {
				classIdx = i
				break
			}
		}
		if classIdx < 0 {
			return Schema{}, nil, fmt.Errorf("dataset: class attribute %q not found in CSV header", opts.ClassAttr)
		}
	}
	cols := make([]csvColumn, len(attrs))
	for i := range attrs {
		kind, declared := opts.Kinds[attrs[i].Name]
		switch {
		case i == classIdx || (declared && kind == Categorical):
			cols[i] = csvColumn{state: colCategorical, dict: NewDictionary()}
		case declared:
			attrs[i].Kind = kind
			cols[i].state = colDeclared
		case maxCard < 0:
			// Zero distinct labels already exceed a negative threshold.
			cols[i].state = colNumeric
		default:
			cols[i] = csvColumn{state: colSniffing, dict: NewDictionary()}
		}
	}
	schema := Schema{Attrs: attrs, ClassIndex: classIdx}
	if err := schema.Validate(); err != nil {
		return Schema{}, nil, err
	}
	return schema, cols, nil
}

// colState is where one column stands in ReadCSV's single pass.
type colState uint8

const (
	// colCategorical: dictionary codes, for good. The class column, a
	// column Kinds declares categorical, and an undeclared column that
	// has seen a non-number.
	colCategorical colState = iota
	// colSniffing: undeclared, every non-missing value so far a number,
	// at most maxCard distinct ones. Held as dictionary codes, which is
	// what the column becomes if it ends here.
	colSniffing
	// colNumeric: undeclared, every non-missing value so far a number,
	// more than maxCard distinct ones. Held as float values plus every
	// row's text, which a later non-number replays into a dictionary in
	// row order; at EOF the text is dropped and the column is
	// continuous.
	colNumeric
	// colDeclared: Kinds declares a non-categorical kind; every value
	// must pass ParseContinuous.
	colDeclared
)

// csvColumn is one column's state while ReadCSV streams the records.
// An undeclared column follows the rule sniffKind used to apply to the
// whole column at once: MissingLabel and "" neither fail the numeric
// test nor count as distinct values, though "" is still a categorical
// label, as in Builder.AddRow.
type csvColumn struct {
	state  colState
	dict   *Dictionary
	codes  Codes // narrow until dict passes MaxNarrowLabels
	values []float64
	// labelValues[c] is dictionary label c as a float while the column
	// is colSniffing (NaN for ""), so the switch to colNumeric parses
	// nothing twice.
	labelValues []float64
	distinct    int // colSniffing: labels other than ""
	// text holds, while colNumeric, every row's trimmed field in row
	// order, each followed by '\n'. No field held there can contain a
	// newline: it is MissingLabel, "" or a number.
	text []byte
}

// add appends one trimmed field. Only a colDeclared column can fail.
func (c *csvColumn) add(v string, maxCard int) error {
	switch c.state {
	case colCategorical:
		code, _ := c.dict.encode(v)
		c.codes.append(code, c.dict.Len())
	case colSniffing:
		code, added := c.dict.encode(v)
		c.codes.append(code, c.dict.Len())
		if !added {
			return nil
		}
		f := math.NaN()
		if v != "" {
			var err error
			if f, err = strconv.ParseFloat(v, 64); err != nil {
				c.state, c.labelValues = colCategorical, nil
				return nil
			}
			c.distinct++
		}
		c.labelValues = append(c.labelValues, f)
		if c.distinct > maxCard {
			c.toNumeric()
		}
	case colNumeric:
		f, err := ParseContinuous(v)
		if err != nil {
			c.toCategorical()
			code, _ := c.dict.encode(v)
			c.codes.append(code, c.dict.Len())
			return nil
		}
		c.values = append(c.values, f)
		c.text = append(append(c.text, v...), '\n')
	case colDeclared:
		f, err := ParseContinuous(v)
		if err != nil {
			return fmt.Errorf("cannot parse %q as number: %w", v, err)
		}
		c.values = append(c.values, f)
	}
	return nil
}

// toNumeric turns a colSniffing column that has just passed maxCard
// distinct numbers into colNumeric, rebuilding values and text from
// its codes.
func (c *csvColumn) toNumeric() {
	c.values = make([]float64, c.codes.Len())
	for r := range c.values {
		code := c.codes.At(r)
		label := MissingLabel
		if code == Missing {
			c.values[r] = math.NaN()
		} else {
			c.values[r] = c.labelValues[code]
			label = c.dict.labels[code]
		}
		c.text = append(append(c.text, label...), '\n')
	}
	c.state, c.dict, c.codes, c.labelValues = colNumeric, nil, Codes{}, nil
}

// toCategorical turns a colNumeric column that has just met a
// non-number into colCategorical: replaying its text in row order
// gives the dictionary the code order a whole-column pass would.
func (c *csvColumn) toCategorical() {
	c.dict = NewDictionary()
	c.codes = Codes{narrow: make([]uint8, 0, len(c.values)+1)}
	text := string(c.text)
	for text != "" {
		i := strings.IndexByte(text, '\n')
		code, _ := c.dict.encode(text[:i])
		c.codes.append(code, c.dict.Len())
		text = text[i+1:]
	}
	c.state, c.values, c.text = colCategorical, nil, nil
}

// encode is Code for a loader field: MissingLabel is Missing, and an
// unseen label is registered as a copy, so the dictionary does not pin
// the record string the field was sliced from. added reports a new
// label.
func (d *Dictionary) encode(label string) (code int32, added bool) {
	if label == MissingLabel {
		return Missing, false
	}
	if c, ok := d.codes[label]; ok {
		return c, false
	}
	return d.Code(strings.Clone(label)), true
}

// checkRecordBytes enforces MaxRecordBytes on one record; line is the
// 1-based CSV line the record starts on, for the error message.
func checkRecordBytes(rec []string, line, limit int) error {
	if limit <= 0 {
		return nil
	}
	n := 0
	for _, f := range rec {
		n += len(f)
		if n > limit {
			return fmt.Errorf("dataset: CSV record at line %d exceeds %d bytes", line, limit)
		}
	}
	return nil
}

// ReadCSVFile is ReadCSV over a file path.
func ReadCSVFile(path string, opts CSVOptions) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, opts)
}

// WriteCSV writes the dataset with a header row. Missing values are
// written as MissingLabel.
func WriteCSV(w io.Writer, ds *Dataset) error {
	cw := csv.NewWriter(w)
	header := make([]string, ds.NumAttrs())
	for i := range header {
		header[i] = ds.Attr(i).Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for r := 0; r < ds.NumRows(); r++ {
		if err := cw.Write(ds.Row(r)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile is WriteCSV to a file path, written atomically so a
// crash or full disk mid-export cannot leave a truncated file at the
// destination.
func WriteCSVFile(path string, ds *Dataset) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return WriteCSV(w, ds)
	})
}
