package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

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
// as it is read, so no record outlives the next one. A column's kind
// is the class's (categorical), the one Kinds declares, or else the
// sniffing rule CSVOptions.Kinds documents, decided at EOF; see
// csvColumn for how an undeclared column is held until then. Records
// come from csvRecords, which splits quote-free lines itself and hands
// the rest of the stream to encoding/csv at the first '"'.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	rs := newCSVRecords(r, opts.Comma)
	fields, err := rs.next()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if opts.MaxColumns > 0 && len(fields) > opts.MaxColumns {
		return nil, fmt.Errorf("dataset: CSV header has %d columns, limit is %d", len(fields), opts.MaxColumns)
	}
	header := make([]string, len(fields))
	for i, f := range fields {
		header[i] = string(f)
	}
	if err := checkRecordBytes(header, rs.line, opts.MaxRecordBytes); err != nil {
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
		rec, err := rs.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV data row %d: %w", rows+1, err)
		}
		if opts.MaxRows > 0 && rows >= opts.MaxRows {
			return nil, fmt.Errorf("dataset: CSV exceeds %d data rows", opts.MaxRows)
		}
		if opts.MaxRecordBytes > 0 {
			n := 0
			for _, f := range rec {
				n += len(f)
			}
			if err := checkRecordSize(n, rs.line, opts.MaxRecordBytes); err != nil {
				return nil, err
			}
		}
		for i, v := range rec {
			if err := cols[i].addField(v, maxCard); err != nil {
				return nil, fmt.Errorf("dataset: CSV line %d: attribute %q: %w", rs.line, schema.Attrs[i].Name, err)
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

// readBufferSize is csvRecords' read buffer. A longer line is collected
// across reads.
const readBufferSize = 64 << 10

// csvRecords yields ReadCSV's records, each as fields sliced from a
// buffer that the next call reuses. A physical line with no '"' byte is
// a whole record, as encoding/csv reads it: its "\n" or "\r\n" (or a
// final '\r' at EOF) is dropped, an empty line is skipped, and the rest
// is split at the comma byte in place. From the first line that holds a
// '"', encoding/csv reads the rest of the stream, that line included,
// and its line numbers are shifted by the lines already read, so every
// error and record names the line encoding/csv alone would. A Comma
// that is not one ASCII byte hands the whole stream over.
type csvRecords struct {
	br    *bufio.Reader
	comma byte
	lines int // physical lines read before the handoff
	// line is the 1-based line the last record started on.
	line int
	// width is the first record's field count, as encoding/csv sets
	// FieldsPerRecord; a later record of another width is
	// csv.ErrFieldCount.
	width  int
	long   []byte // a line longer than br's buffer, collected
	fields [][]byte

	cr *csv.Reader // non-nil once encoding/csv reads the stream
	// shift is the number of lines read before cr's first line.
	shift int
	buf   []byte // cr's last record, its fields back to back
}

func newCSVRecords(r io.Reader, comma rune) *csvRecords {
	rs := &csvRecords{comma: ','}
	switch {
	case comma == 0:
	case 0 < comma && comma < utf8.RuneSelf && comma != '"' && comma != '\r' && comma != '\n':
		rs.comma = byte(comma)
	default:
		rs.cr = csv.NewReader(r)
		rs.cr.Comma = comma
		rs.cr.ReuseRecord = true
		return rs
	}
	rs.br = bufio.NewReaderSize(r, readBufferSize)
	return rs
}

// next returns the next record's fields, valid until the following
// call, or io.EOF after the last one.
func (rs *csvRecords) next() ([][]byte, error) {
	for rs.cr == nil {
		raw, err := rs.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			rs.long = append(rs.long[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = rs.br.ReadSlice('\n')
				rs.long = append(rs.long, raw...)
			}
			raw = rs.long
		}
		if len(raw) == 0 || (err != nil && err != io.EOF) {
			return nil, err
		}
		rs.lines++
		if bytes.IndexByte(raw, '"') >= 0 {
			rs.handoff(raw)
			break
		}
		line := raw
		if n := len(line); line[n-1] == '\n' {
			line = line[:n-1]
			if n > 1 && line[n-2] == '\r' {
				line = line[:n-2]
			}
		} else if line[n-1] == '\r' {
			line = line[:n-1] // encoding/csv drops a final '\r' at EOF
		}
		if len(line) == 0 {
			continue
		}
		rs.line = rs.lines
		fields, start := rs.fields[:0], 0
		for i, b := range line {
			if b == rs.comma {
				fields = append(fields, line[start:i])
				start = i + 1
			}
		}
		rs.fields = append(fields, line[start:])
		if rs.width == 0 {
			rs.width = len(rs.fields)
		} else if len(rs.fields) != rs.width {
			return nil, &csv.ParseError{StartLine: rs.line, Line: rs.line, Column: 1, Err: csv.ErrFieldCount}
		}
		return rs.fields, nil
	}
	rec, err := rs.cr.Read()
	if err != nil {
		if pe, ok := err.(*csv.ParseError); ok {
			pe.StartLine += rs.shift
			pe.Line += rs.shift
		}
		return nil, err
	}
	line, _ := rs.cr.FieldPos(0)
	rs.line = line + rs.shift
	rs.buf, rs.fields = rs.buf[:0], rs.fields[:0]
	for _, f := range rec {
		rs.buf = append(rs.buf, f...)
	}
	off := 0
	for _, f := range rec {
		rs.fields = append(rs.fields, rs.buf[off:off+len(f)])
		off += len(f)
	}
	return rs.fields, nil
}

// handoff gives the stream to encoding/csv from raw, the line just
// read, on.
func (rs *csvRecords) handoff(raw []byte) {
	rs.shift = rs.lines - 1
	rs.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(raw)), rs.br))
	rs.cr.Comma = rune(rs.comma)
	rs.cr.ReuseRecord = true
	rs.cr.FieldsPerRecord = rs.width
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
	// short codes labels of 1–7 bytes without the dictionary's map
	// while the column is colCategorical or colSniffing.
	short shortLabels
}

// addField appends one raw field: it trims it, codes a label the short
// table knows without calling add, and otherwise calls add. A label
// enters the table only after add has coded it and the column is still
// categorical or sniffing, and the table is cleared whenever add
// changes the column's state, so a hit is exactly a label the
// dictionary already holds: code order and the sniffing decision are
// add's alone.
func (c *csvColumn) addField(v []byte, maxCard int) error {
	if n := len(v); n == 0 || !graphic(v[0]) || !graphic(v[n-1]) {
		v = bytes.TrimSpace(v)
	}
	key := uint64(0)
	if c.state <= colSniffing && len(v) > 0 && len(v) < 8 {
		key = shortKey(v)
		if code, ok := c.short.get(key); ok {
			c.codes.append(code, c.dict.Len())
			return nil
		}
	}
	state := c.state
	if err := c.add(v, maxCard); err != nil {
		return err
	}
	if c.state != state {
		c.short.clear()
	}
	if key != 0 && c.state <= colSniffing {
		c.short.put(key, c.codes.At(c.codes.Len()-1))
	}
	return nil
}

// graphic reports whether b is a printable ASCII byte other than
// space: a field that starts and ends with one has nothing to trim.
func graphic(b byte) bool { return b-0x21 < 0x7f-0x21 }

// shortKey packs a label of 1–7 bytes with its length into a nonzero
// uint64, one key per label. A label sliced from a buffer with 8 bytes
// left from its start is read in one load and masked to its length.
func shortKey(v []byte) uint64 {
	k := uint64(len(v)) << 56
	if cap(v) >= 8 {
		return k | binary.LittleEndian.Uint64(v[:8])&(1<<(8*len(v))-1)
	}
	for i, b := range v {
		k |= uint64(b) << (8 * i)
	}
	return k
}

// shortSlots is the size of a shortLabels table. It holds at most half
// as many labels, so a probe for an absent one soon meets an empty slot.
const (
	shortBits  = 6
	shortSlots = 1 << shortBits
)

// shortLabels is an open-addressing table from shortKey to code, seeded
// with MissingLabel. A column with more labels than it holds keeps the
// first ones it sees and codes the rest through the dictionary.
type shortLabels struct {
	slots [shortSlots]struct {
		key  uint64 // 0: empty
		code int32
	}
	n int
}

var missingKey = shortKey([]byte(MissingLabel))

// slotOf is key's home slot, by Fibonacci hashing.
func slotOf(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> (64 - shortBits)) }

// get returns key's code. An empty table knows only MissingLabel.
func (t *shortLabels) get(key uint64) (int32, bool) {
	if t.n == 0 {
		return Missing, key == missingKey
	}
	for i := slotOf(key); ; i = (i + 1) % shortSlots {
		switch s := &t.slots[i]; s.key {
		case key:
			return s.code, true
		case 0:
			return 0, false
		}
	}
}

// put adds key, which get has just missed, unless the table is full.
func (t *shortLabels) put(key uint64, code int32) {
	if t.n >= shortSlots/2 {
		return
	}
	if t.n == 0 {
		t.insert(missingKey, Missing)
	}
	t.insert(key, code)
}

func (t *shortLabels) insert(key uint64, code int32) {
	i := slotOf(key)
	for t.slots[i].key != 0 {
		i = (i + 1) % shortSlots
	}
	t.slots[i].key, t.slots[i].code = key, code
	t.n++
}

// clear empties the table.
func (t *shortLabels) clear() { *t = shortLabels{} }

// add appends one trimmed field. Only a colDeclared column can fail.
func (c *csvColumn) add(v []byte, maxCard int) error {
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
		if len(v) > 0 {
			var err error
			if f, err = strconv.ParseFloat(c.dict.labels[code], 64); err != nil {
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
		f, err := ParseContinuous(string(v))
		if err != nil {
			c.toCategorical()
			code, _ := c.dict.encode(v)
			c.codes.append(code, c.dict.Len())
			return nil
		}
		c.values = append(c.values, f)
		c.text = append(append(c.text, v...), '\n')
	case colDeclared:
		f, err := ParseContinuous(string(v))
		if err != nil {
			return fmt.Errorf("cannot parse %q as number: %w", string(v), err)
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
	for text := c.text; len(text) > 0; {
		i := bytes.IndexByte(text, '\n')
		code, _ := c.dict.encode(text[:i])
		c.codes.append(code, c.dict.Len())
		text = text[i+1:]
	}
	c.state, c.values, c.text = colCategorical, nil, nil
}

// encode is Code for a loader field: MissingLabel is Missing, and an
// unseen label is registered as a new string, so the dictionary does
// not pin the buffer the field was sliced from. added reports a new
// label.
func (d *Dictionary) encode(label []byte) (code int32, added bool) {
	if string(label) == MissingLabel {
		return Missing, false
	}
	if c, ok := d.codes[string(label)]; ok {
		return c, false
	}
	s := string(label)
	code = int32(len(d.labels))
	d.labels = append(d.labels, s)
	d.codes[s] = code
	return code, true
}

// checkRecordBytes enforces MaxRecordBytes on one record; line is the
// 1-based CSV line the record starts on, for the error message.
func checkRecordBytes(rec []string, line, limit int) error {
	n := 0
	for _, f := range rec {
		n += len(f)
	}
	return checkRecordSize(n, line, limit)
}

// checkRecordSize is checkRecordBytes for a record of n field bytes.
func checkRecordSize(n, line, limit int) error {
	if limit > 0 && n > limit {
		return fmt.Errorf("dataset: CSV record at line %d exceeds %d bytes", line, limit)
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
