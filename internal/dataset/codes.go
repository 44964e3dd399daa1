package dataset

// Code is the element type of a categorical column's storage: uint8
// while the column is narrow, int32 once it is wide. Row loops that
// read codes are generic over it, so one source serves both widths and
// the width is picked once per column, outside the loop.
//
// For either width, a code plus one computed at that width is 0 for
// Missing and the code's dictionary index plus one otherwise: a narrow
// Missing (255) wraps to 0, a wide one (-1) adds to 0. Counting kernels
// index their missing-value slot 0 with exactly that, branch-free.
type Code interface{ uint8 | int32 }

// MaxNarrowLabels is the largest dictionary a narrow column holds:
// codes 0..254 fit one byte beside the narrow Missing sentinel, 255.
const MaxNarrowLabels = 255

// narrowMissing is Missing in a narrow column.
const narrowMissing uint8 = 255

// Codes is the storage of one categorical column's codes. A column is
// narrow, one byte per row, while its dictionary has at most
// MaxNarrowLabels labels; it is widened to int32 exactly once, by the
// append or dictionary union that takes its dictionary past that, and
// stays wide. Readers outside the counting kernels use At; the kernels
// take Narrow or Wide, whichever IsWide selects, once per pass.
type Codes struct {
	narrow []uint8 // narrowMissing for absent values
	wide   []int32 // Missing for absent values
	isWide bool
}

// MakeCodes returns n Missing codes stored at the width a dictionary
// of labels labels needs.
func MakeCodes(n, labels int) Codes {
	if labels > MaxNarrowLabels {
		w := make([]int32, n)
		for r := range w {
			w[r] = Missing
		}
		return Codes{wide: w, isWide: true}
	}
	b := make([]uint8, n)
	for r := range b {
		b[r] = narrowMissing
	}
	return Codes{narrow: b}
}

// Len returns the number of rows.
func (c *Codes) Len() int {
	if c.isWide {
		return len(c.wide)
	}
	return len(c.narrow)
}

// IsWide reports whether the codes are stored as int32.
func (c *Codes) IsWide() bool { return c.isWide }

// Width returns the bytes stored per row: 1 narrow, 4 wide.
func (c *Codes) Width() int {
	if c.isWide {
		return 4
	}
	return 1
}

// Narrow returns the one-byte codes of a narrow column (nil when wide),
// 255 standing for Missing. The caller must not modify them.
func (c *Codes) Narrow() []uint8 { return c.narrow }

// Wide returns the int32 codes of a wide column (nil when narrow). The
// caller must not modify them.
func (c *Codes) Wide() []int32 { return c.wide }

// At returns row r's code, Missing for an absent value, at either
// width.
func (c *Codes) At(r int) int32 {
	if c.isWide {
		return c.wide[r]
	}
	return int32(c.narrow[r]+1) - 1
}

// Int32s returns every code as int32, Missing for absent values, in a
// new slice: the argument form of APIs that take class labels as
// []int32 (discretize.Discretizer).
func (c *Codes) Int32s() []int32 {
	if c.isWide {
		return append([]int32(nil), c.wide...)
	}
	out := make([]int32, len(c.narrow))
	for r, b := range c.narrow {
		out[r] = int32(b+1) - 1
	}
	return out
}

// Set stores code (Missing, or any negative value, for absent) at row
// r, widening a narrow column first if code does not fit a byte.
func (c *Codes) Set(r int, code int32) {
	if !c.isWide && code >= MaxNarrowLabels {
		c.widen()
	}
	if c.isWide {
		c.wide[r] = max(code, Missing)
		return
	}
	c.narrow[r] = narrowByte(code)
}

// append adds one code for a column whose dictionary has labels
// labels, widening the column first if the dictionary or the code has
// outgrown a byte. A negative code is stored as Missing.
func (c *Codes) append(code int32, labels int) {
	if !c.isWide {
		if labels <= MaxNarrowLabels && code < MaxNarrowLabels {
			c.narrow = append(c.narrow, narrowByte(code))
			return
		}
		c.widen()
	}
	c.wide = append(c.wide, max(code, Missing))
}

// fit widens a narrow column whose dictionary has outgrown a byte.
func (c *Codes) fit(labels int) {
	if !c.isWide && labels > MaxNarrowLabels {
		c.widen()
	}
}

// widen converts a narrow column to int32 storage, keeping its
// capacity in rows so appends continue to grow it geometrically.
func (c *Codes) widen() {
	w := make([]int32, len(c.narrow), cap(c.narrow))
	for r, b := range c.narrow {
		w[r] = int32(b+1) - 1
	}
	c.narrow, c.wide, c.isWide = nil, w, true
}

// gather returns the codes at rows, in order, at the same width.
func (c *Codes) gather(rows []int) Codes {
	if c.isWide {
		return Codes{wide: gatherRows(c.wide, rows), isWide: true}
	}
	return Codes{narrow: gatherRows(c.narrow, rows)}
}

func gatherRows[C Code](src []C, rows []int) []C {
	out := make([]C, len(rows))
	for j, r := range rows {
		out[j] = src[r]
	}
	return out
}

// narrowByte is a code below MaxNarrowLabels, or Missing for any
// negative code, as one narrow byte.
func narrowByte(code int32) uint8 {
	if code < 0 {
		return narrowMissing
	}
	return uint8(code)
}
