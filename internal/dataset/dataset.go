// Package dataset implements the columnar in-memory classification
// dataset the Opportunity Map system operates on. Datasets are typical
// supervised-learning tables (Section III.A of the paper): a set of
// attributes, one of which is the categorical class attribute. Categorical
// columns are dictionary-encoded: each row holds its value's dense code,
// one byte per row while the dictionary has at most 255 labels and four
// bytes once it outgrows that (Codes). Continuous columns are stored as
// float64 and must be discretized (package discretize) before rules or
// cubes can be built over them.
package dataset

import (
	"fmt"
	"math"
	"strconv"
)

// Kind classifies an attribute as categorical or continuous.
type Kind uint8

const (
	// Categorical attributes take values from a finite domain and are
	// dictionary-encoded.
	Categorical Kind = iota
	// Continuous attributes are real-valued and must be discretized
	// before mining.
	Continuous
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Missing is the code used for a missing categorical value. A narrow
// column stores it as the byte 255; At and every other int32 view of a
// code read it back as Missing.
const Missing int32 = -1

// MissingLabel is the textual representation of a missing value in CSV
// input and output.
const MissingLabel = "?"

// Attribute describes one column of a dataset.
type Attribute struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of attributes plus the index of the class
// attribute. The class attribute must be categorical.
type Schema struct {
	Attrs      []Attribute
	ClassIndex int
}

// Validate checks structural invariants of the schema.
func (s Schema) Validate() error {
	if len(s.Attrs) == 0 {
		return fmt.Errorf("dataset: schema has no attributes")
	}
	if s.ClassIndex < 0 || s.ClassIndex >= len(s.Attrs) {
		return fmt.Errorf("dataset: class index %d out of range [0,%d)", s.ClassIndex, len(s.Attrs))
	}
	if s.Attrs[s.ClassIndex].Kind != Categorical {
		return fmt.Errorf("dataset: class attribute %q must be categorical", s.Attrs[s.ClassIndex].Name)
	}
	seen := make(map[string]struct{}, len(s.Attrs))
	for i, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if _, dup := seen[a.Name]; dup {
			return fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = struct{}{}
	}
	return nil
}

// AttrIndex returns the index of the attribute with the given name, or
// -1 if there is no such attribute.
func (s Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Dictionary maps between categorical value labels and dense codes.
type Dictionary struct {
	labels []string
	codes  map[string]int32
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{codes: make(map[string]int32)}
}

// DictionaryOf builds a dictionary with the given labels pre-registered
// in order.
func DictionaryOf(labels ...string) *Dictionary {
	d := NewDictionary()
	for _, l := range labels {
		d.Code(l)
	}
	return d
}

// Code returns the code for label, registering it if unseen.
func (d *Dictionary) Code(label string) int32 {
	if c, ok := d.codes[label]; ok {
		return c
	}
	c := int32(len(d.labels))
	d.labels = append(d.labels, label)
	d.codes[label] = c
	return c
}

// Lookup returns the code for label without registering it.
func (d *Dictionary) Lookup(label string) (int32, bool) {
	c, ok := d.codes[label]
	return c, ok
}

// Label returns the label for a code. Missing and out-of-range codes
// yield MissingLabel.
func (d *Dictionary) Label(code int32) string {
	if code < 0 || int(code) >= len(d.labels) {
		return MissingLabel
	}
	return d.labels[code]
}

// Len returns the number of distinct registered labels.
func (d *Dictionary) Len() int { return len(d.labels) }

// View returns the labels in code order without copying; callers must
// not modify it. A dictionary only ever appends, so a view taken under
// a reader's lock keeps its labels while the dictionary grows.
func (d *Dictionary) View() []string { return d.labels[:len(d.labels):len(d.labels)] }

// Labels returns a copy of all labels in code order.
func (d *Dictionary) Labels() []string {
	out := make([]string, len(d.labels))
	copy(out, d.labels)
	return out
}

// Clone returns a deep copy of the dictionary.
func (d *Dictionary) Clone() *Dictionary {
	nd := &Dictionary{
		labels: make([]string, len(d.labels)),
		codes:  make(map[string]int32, len(d.codes)),
	}
	copy(nd.labels, d.labels)
	for k, v := range d.codes {
		nd.codes[k] = v
	}
	return nd
}

// Column is the storage for one attribute: Codes and Dict for a
// categorical attribute, Values for a continuous one.
type Column struct {
	Kind   Kind
	Codes  Codes     // categorical codes at the width Dict needs (Codes)
	Values []float64 // continuous values, NaN for absent values
	Dict   *Dictionary
}

// Len returns the number of rows stored in the column.
func (c *Column) Len() int {
	if c.Kind == Categorical {
		return c.Codes.Len()
	}
	return len(c.Values)
}

// appendCode appends one code to a categorical column, widening it
// first if its dictionary has outgrown a byte.
func (c *Column) appendCode(code int32) {
	c.Codes.append(code, c.Dict.Len())
}

// checkCodes rejects a code that is neither Missing nor inside the
// dictionary.
func (c *Column) checkCodes(name string) error {
	for r, n := 0, c.Codes.Len(); r < n; r++ {
		if code := c.Codes.At(r); code < Missing || int(code) >= c.Dict.Len() {
			return fmt.Errorf("dataset: attribute %q has code %d beyond dictionary size %d", name, code, c.Dict.Len())
		}
	}
	return nil
}

// Dataset is a columnar table with a schema. All columns have the same
// length. The zero value is not usable; construct datasets with a
// Builder, ReadCSV, or the workload generator.
type Dataset struct {
	schema Schema
	cols   []Column
	rows   int
	// base is set on a Derive result: the dataset whose categorical
	// columns (codes and dictionaries) this one shares.
	base *Dataset
}

// Schema returns the dataset schema. The returned value shares the
// attribute slice; callers must not modify it.
func (ds *Dataset) Schema() Schema { return ds.schema }

// NumRows returns the number of records.
func (ds *Dataset) NumRows() int { return ds.rows }

// NumAttrs returns the number of attributes including the class.
func (ds *Dataset) NumAttrs() int { return len(ds.schema.Attrs) }

// ClassIndex returns the index of the class attribute.
func (ds *Dataset) ClassIndex() int { return ds.schema.ClassIndex }

// ClassDict returns the dictionary of the class attribute.
func (ds *Dataset) ClassDict() *Dictionary { return ds.cols[ds.schema.ClassIndex].Dict }

// NumClasses returns the number of distinct class labels.
func (ds *Dataset) NumClasses() int { return ds.ClassDict().Len() }

// Column returns the storage of attribute i. The caller must not modify
// the returned slices.
func (ds *Dataset) Column(i int) *Column { return &ds.cols[i] }

// AttrIndex returns the index of the named attribute or -1.
func (ds *Dataset) AttrIndex(name string) int { return ds.schema.AttrIndex(name) }

// Attr returns the attribute descriptor at index i.
func (ds *Dataset) Attr(i int) Attribute { return ds.schema.Attrs[i] }

// Cardinality returns the number of distinct values of categorical
// attribute i (0 for continuous attributes).
func (ds *Dataset) Cardinality(i int) int {
	c := &ds.cols[i]
	if c.Kind != Categorical || c.Dict == nil {
		return 0
	}
	return c.Dict.Len()
}

// CatCode returns the categorical code at (row, attr). It panics if the
// attribute is continuous — callers are expected to have discretized.
func (ds *Dataset) CatCode(row, attr int) int32 {
	c := &ds.cols[attr]
	if c.Kind != Categorical {
		panic(fmt.Sprintf("dataset: attribute %q is continuous; discretize before categorical access", ds.schema.Attrs[attr].Name))
	}
	return c.Codes.At(row)
}

// ContValue returns the continuous value at (row, attr). It panics for
// categorical attributes.
func (ds *Dataset) ContValue(row, attr int) float64 {
	c := &ds.cols[attr]
	if c.Kind != Continuous {
		panic(fmt.Sprintf("dataset: attribute %q is categorical", ds.schema.Attrs[attr].Name))
	}
	return c.Values[row]
}

// Label returns the textual value at (row, attr) for either kind.
func (ds *Dataset) Label(row, attr int) string {
	c := &ds.cols[attr]
	if c.Kind == Categorical {
		return c.Dict.Label(c.Codes.At(row))
	}
	v := c.Values[row]
	if math.IsNaN(v) {
		return MissingLabel
	}
	return fmt.Sprintf("%g", v)
}

// ClassCode returns the class code of a row.
func (ds *Dataset) ClassCode(row int) int32 {
	return ds.cols[ds.schema.ClassIndex].Codes.At(row)
}

// AllCategorical reports whether every attribute is categorical (the
// precondition for rule mining and cube construction).
func (ds *Dataset) AllCategorical() bool {
	for _, c := range ds.cols {
		if c.Kind != Categorical {
			return false
		}
	}
	return true
}

// ClassDistribution returns the count of each class code.
func (ds *Dataset) ClassDistribution() []int64 {
	counts := make([]int64, ds.NumClasses())
	countCodes(&ds.cols[ds.schema.ClassIndex].Codes, counts)
	return counts
}

// ValueCounts returns, for categorical attribute attr, the count of each
// value code (missing values are not counted).
func (ds *Dataset) ValueCounts(attr int) ([]int64, error) {
	c := &ds.cols[attr]
	if c.Kind != Categorical {
		return nil, fmt.Errorf("dataset: ValueCounts on continuous attribute %q", ds.schema.Attrs[attr].Name)
	}
	counts := make([]int64, c.Dict.Len())
	countCodes(&c.Codes, counts)
	return counts, nil
}

// countCodes adds each present code below len(counts) to its count and
// returns the number of Missing codes.
func countCodes(codes *Codes, counts []int64) (missing int64) {
	for r, n := 0, codes.Len(); r < n; r++ {
		code := codes.At(r)
		switch {
		case code < 0:
			missing++
		case int(code) < len(counts):
			counts[code]++
		}
	}
	return missing
}

// Filter returns a new dataset containing only the rows for which keep
// returns true. Dictionaries are shared with the source (codes keep
// their meaning), so the result is cheap relative to the retained rows.
func (ds *Dataset) Filter(keep func(row int) bool) *Dataset {
	var idx []int
	for r := 0; r < ds.rows; r++ {
		if keep(r) {
			idx = append(idx, r)
		}
	}
	return ds.Gather(idx)
}

// Gather returns a new dataset made of the given row indices, in order.
// Indices may repeat (used by the Fig. 11 duplication protocol and by
// bootstrap-style sampling).
func (ds *Dataset) Gather(rows []int) *Dataset {
	out := &Dataset{schema: ds.schema, rows: len(rows)}
	out.cols = make([]Column, len(ds.cols))
	for i := range ds.cols {
		src := &ds.cols[i]
		dst := &out.cols[i]
		dst.Kind = src.Kind
		dst.Dict = src.Dict
		if src.Kind == Categorical {
			dst.Codes = src.Codes.gather(rows)
		} else {
			dst.Values = make([]float64, len(rows))
			for j, r := range rows {
				dst.Values[j] = src.Values[r]
			}
		}
	}
	return out
}

// SelectAttrs returns a dataset restricted to the given attribute
// indices. The class attribute is always retained and its position in
// the result is recomputed. Column storage is shared with the source.
func (ds *Dataset) SelectAttrs(attrs []int) (*Dataset, error) {
	hasClass := false
	for _, a := range attrs {
		if a < 0 || a >= len(ds.cols) {
			return nil, fmt.Errorf("dataset: attribute index %d out of range", a)
		}
		if a == ds.schema.ClassIndex {
			hasClass = true
		}
	}
	sel := attrs
	if !hasClass {
		sel = append(append([]int{}, attrs...), ds.schema.ClassIndex)
	}
	out := &Dataset{rows: ds.rows}
	out.schema.Attrs = make([]Attribute, len(sel))
	out.cols = make([]Column, len(sel))
	for i, a := range sel {
		out.schema.Attrs[i] = ds.schema.Attrs[a]
		out.cols[i] = ds.cols[a]
		if a == ds.schema.ClassIndex {
			out.schema.ClassIndex = i
		}
	}
	return out, nil
}

// Derive returns a fully categorical dataset over ds's rows that holds
// no second copy of them: every categorical column aliases ds's codes
// and *Dictionary, and every continuous column i is replaced by
// binned[i], a categorical column of ds's length with its own
// (interval) dictionary. Entries of binned at categorical attributes
// are ignored.
//
// ds becomes the result's base, and the two grow in one order, each
// by UnionDicts and AppendRemapped: the base first, then the derived
// dataset, whose AppendRemapped takes each shared column's new codes
// from the base (re-slicing its grown backing array) instead of
// writing them again. The shared columns therefore stay one copy
// across slice growth, and across the one widening of a shared column
// whose dictionary outgrows a byte: the base widens it as it appends,
// the derived dataset re-slices the wide codes.
func (ds *Dataset) Derive(binned []Column) (*Dataset, error) {
	if len(binned) != len(ds.cols) {
		return nil, fmt.Errorf("dataset: Derive: %d columns for %d attributes", len(binned), len(ds.cols))
	}
	out := &Dataset{rows: ds.rows, base: ds, cols: make([]Column, len(ds.cols))}
	out.schema = Schema{Attrs: make([]Attribute, len(ds.cols)), ClassIndex: ds.schema.ClassIndex}
	for i := range ds.cols {
		out.schema.Attrs[i] = Attribute{Name: ds.schema.Attrs[i].Name, Kind: Categorical}
		if ds.cols[i].Kind == Categorical {
			out.cols[i] = ds.cols[i]
			continue
		}
		b := binned[i]
		if b.Kind != Categorical || b.Dict == nil || b.Codes.Len() != ds.rows {
			return nil, fmt.Errorf("dataset: Derive: attribute %q needs a categorical column of %d codes with a dictionary", ds.schema.Attrs[i].Name, ds.rows)
		}
		if err := b.checkCodes(ds.schema.Attrs[i].Name); err != nil {
			return nil, err
		}
		out.cols[i] = Column{Kind: Categorical, Codes: b.Codes, Dict: b.Dict}
	}
	return out, nil
}

// shared reports whether column i aliases the base's column: true for
// every categorical column of the base of a Derive result.
func (ds *Dataset) shared(i int) bool {
	return ds.base != nil && ds.base.cols[i].Kind == Categorical
}

// Duplicate returns the dataset repeated factor times. The paper's
// Fig. 11 scale-up protocol ("To increase the number of data records, we
// simply duplicate the data set") uses exactly this operation.
func (ds *Dataset) Duplicate(factor int) *Dataset {
	if factor < 1 {
		factor = 1
	}
	idx := make([]int, 0, ds.rows*factor)
	for f := 0; f < factor; f++ {
		for r := 0; r < ds.rows; r++ {
			idx = append(idx, r)
		}
	}
	return ds.Gather(idx)
}

// Row materializes row r as labels, mainly for display and CSV export.
func (ds *Dataset) Row(r int) []string {
	out := make([]string, len(ds.cols))
	for i := range ds.cols {
		out[i] = ds.Label(r, i)
	}
	return out
}

// Builder constructs a Dataset row by row.
type Builder struct {
	schema Schema
	cols   []Column
	rows   int
	err    error
}

// NewBuilder creates a builder for the given schema. Every categorical
// attribute receives a fresh dictionary and starts narrow.
func NewBuilder(schema Schema) (*Builder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	b := &Builder{schema: schema}
	b.cols = make([]Column, len(schema.Attrs))
	for i, a := range schema.Attrs {
		b.cols[i].Kind = a.Kind
		if a.Kind == Categorical {
			b.cols[i].Dict = NewDictionary()
		}
	}
	return b, nil
}

// WithDict pre-registers a dictionary for categorical attribute i so
// that code order is controlled by the caller (for example to keep
// ordinal attributes like time-of-day in their natural order).
func (b *Builder) WithDict(attr int, dict *Dictionary) *Builder {
	if b.err != nil {
		return b
	}
	if attr < 0 || attr >= len(b.cols) || b.cols[attr].Kind != Categorical {
		b.err = fmt.Errorf("dataset: WithDict: attribute %d is not categorical", attr)
		return b
	}
	b.cols[attr].Dict = dict
	b.cols[attr].Codes.fit(dict.Len())
	return b
}

// AddRow appends a row of textual values, one per attribute. Missing
// values are written as MissingLabel ("?").
func (b *Builder) AddRow(values []string) error {
	if b.err != nil {
		return b.err
	}
	if err := b.schema.CheckRow(values); err != nil {
		b.err = err
		return err
	}
	for i := range b.cols {
		c := &b.cols[i]
		v := values[i]
		if c.Kind == Categorical {
			if v == MissingLabel {
				c.appendCode(Missing)
			} else {
				c.appendCode(c.Dict.Code(v))
			}
			continue
		}
		f, _ := ParseContinuous(v) // CheckRow parsed it
		c.Values = append(c.Values, f)
	}
	b.rows++
	return nil
}

// CheckRow reports why AddRow would reject a row of textual values:
// a width other than the schema's, or a continuous field that
// ParseContinuous rejects. Nothing else about a textual row can fail.
func (s Schema) CheckRow(values []string) error {
	if len(values) != len(s.Attrs) {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(values), len(s.Attrs))
	}
	for i, a := range s.Attrs {
		if a.Kind != Continuous {
			continue
		}
		if _, err := ParseContinuous(values[i]); err != nil {
			return fmt.Errorf("dataset: attribute %q: cannot parse %q as number: %v", a.Name, values[i], err)
		}
	}
	return nil
}

// ParseContinuous parses one textual value of a continuous attribute.
// MissingLabel and the empty string are missing (NaN). Anything else
// must be a number as a whole for strconv.ParseFloat, the parse the
// CSV loader's kind sniffing uses to call a column continuous: "12abc",
// "1.5.5" or " 7" is an error, never a number read off its prefix.
func ParseContinuous(v string) (float64, error) {
	if v == MissingLabel || v == "" {
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

// AddCodedRow appends a row given pre-encoded categorical codes and raw
// continuous values. codes[i] is consulted for categorical attributes,
// values[i] for continuous ones; the other entry is ignored. This is the
// fast path used by the synthetic workload generator.
func (b *Builder) AddCodedRow(codes []int32, values []float64) error {
	if b.err != nil {
		return b.err
	}
	if len(codes) != len(b.cols) || (values != nil && len(values) != len(b.cols)) {
		b.err = fmt.Errorf("dataset: coded row width mismatch")
		return b.err
	}
	for i := range b.cols {
		c := &b.cols[i]
		if c.Kind == Categorical {
			c.appendCode(codes[i])
		} else {
			c.Values = append(c.Values, values[i])
		}
	}
	b.rows++
	return nil
}

// FromColumns assembles a dataset from complete columns, one per
// schema attribute and all of one length, taking them without a copy:
// the constructor of a decoder that has every column at once (session
// snapshots). A categorical column needs its dictionary and codes
// inside it, a continuous one its values.
func FromColumns(schema Schema, cols []Column) (*Dataset, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(cols) != len(schema.Attrs) {
		return nil, fmt.Errorf("dataset: %d columns for %d attributes", len(cols), len(schema.Attrs))
	}
	rows := cols[0].Len()
	for i := range cols {
		c, a := &cols[i], schema.Attrs[i]
		switch {
		case c.Kind != a.Kind:
			return nil, fmt.Errorf("dataset: attribute %q is %s but its column is %s", a.Name, a.Kind, c.Kind)
		case c.Len() != rows:
			return nil, fmt.Errorf("dataset: attribute %q has %d rows, attribute %q has %d", a.Name, c.Len(), schema.Attrs[0].Name, rows)
		case c.Kind == Categorical && c.Dict == nil:
			return nil, fmt.Errorf("dataset: categorical attribute %q has no dictionary", a.Name)
		case c.Kind == Categorical:
			if err := c.checkCodes(a.Name); err != nil {
				return nil, err
			}
		}
	}
	return &Dataset{schema: schema, cols: cols, rows: rows}, nil
}

// Build finalizes the dataset. The builder must not be used afterwards.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	for i := range b.cols {
		c := &b.cols[i]
		if c.Kind == Categorical {
			if err := c.checkCodes(b.schema.Attrs[i].Name); err != nil {
				return nil, err
			}
		}
	}
	ds := &Dataset{schema: b.schema, cols: b.cols, rows: b.rows}
	return ds, nil
}
