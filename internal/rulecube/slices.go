package rulecube

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"opmap/internal/car"
	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
)

// Slice counting (DESIGN.md §14). A pairwise comparison of A1 = v1
// against A1 = v2 reads only two slices of each candidate's pair cube
// (A1, B): the rows of D1 ∪ D2, split by side, B's value and class.
// CountSlices counts exactly those slices for every candidate in one
// pass, touching each candidate's column only at the selected rows,
// so a comparison whose pair cubes are not resident costs one pass over
// |D1 ∪ D2| rows instead of one full-table scan per pair cube.
// SelectRows is the selection, under any fixed conditions.

// RowsCountedCounterName counts the rows tallied by counting passes:
// every row of a BuildMany scan, and the selected rows (D1 ∪ D2 with a
// present class) of a CountSlices pass.
const RowsCountedCounterName = "opmap_rows_counted_total"

// Selection is what a walk counts: Rules, the selected rows per side
// and class as the slices of a one-valued candidate (empty from
// SelectRows); Total, the rows with A1 and the class present where
// every condition holds (A1's 1-D cube total); Matched, those where
// every condition holds.
type Selection struct {
	Rules          Slices
	Total, Matched int64
}

// Slices is the A1 = v1 and A1 = v2 slices of one pair cube
// (A1, B) × class: side 0 is v1, side 1 is v2. Rows where A1, B or the
// class is missing are not counted, as in the pair cube. It views the
// counts it was made from without copying them.
type Slices struct {
	dim, nc, stride int
	sides           [2][]int64 // sides[side][b*stride + class]
}

// Dim returns the number of B values (B's cube dimension).
func (s Slices) Dim() int { return s.dim }

// Fill writes, for every B value b, side's rows with B = b into cond[b]
// and those of them in class class into sup[b]. cond and sup must hold
// Dim() entries, and class must be in range.
func (s Slices) Fill(side int, class int32, cond, sup []int64) {
	cond, sup = cond[:s.dim], sup[:s.dim]
	for b := range cond {
		row := s.sides[side][b*s.stride:][:s.nc]
		var n int64
		for _, c := range row {
			n += c
		}
		cond[b], sup[b] = n, row[class]
	}
}

// SlicesOf views the A1 = v1 and A1 = v2 slices of a counted pair cube
// over a1 and another attribute, in either dimension order. v1 may
// equal v2, for a one-sided read.
func SlicesOf(c *Cube, a1 int, v1, v2 int32) (Slices, error) {
	if len(c.dims) != 2 || (c.attrIdx[0] != a1 && c.attrIdx[1] != a1) {
		return Slices{}, fmt.Errorf("rulecube: cube dimensions %v are not a pair over attribute %d", c.attrIdx, a1)
	}
	posA := 0
	if c.attrIdx[1] == a1 {
		posA = 1
	}
	dimA, dimB, nc := c.dims[posA], c.dims[1-posA], c.numClasses
	s, rowA := Slices{dim: dimB, nc: nc, stride: nc}, dimB*nc // counts are [va][vb][class]
	if posA == 1 {
		s.stride, rowA = dimA*nc, nc // counts are [vb][va][class]
	}
	for side, v := range [2]int32{v1, v2} {
		if v < 0 || int(v) >= dimA {
			return Slices{}, fmt.Errorf("rulecube: value %d of attribute %q out of range [0,%d)", v, c.attrNames[posA], dimA)
		}
		s.sides[side] = c.counts[int(v)*rowA:]
	}
	return s, nil
}

// slicePlan accumulates one candidate's slices during the pass. Its
// scratch is (dim+1) × 2 × nc with slot 0 of the value dimension
// catching missing values, as in a pairPlan.
type slicePlan struct {
	col     dataset.Codes
	dim     int
	scratch []int64
}

// jointCells bounds a joint plan's table: 2,048 int64 cells are 16 KiB,
// half of a 32 KiB L1 data cache, the smallest in current x86-64 and
// arm64 cores. On a 48 KiB-L1d Xeon a joint table beat tallying its
// two candidates alone up to 2,646 cells and lost from 3,750 cells on
// (DESIGN.md §14).
const jointCells = 2048

// jointPlan tallies two narrow candidates a and b in one table of
// (a.dim+1) × (b.dim+1) × 2 × nc cells, one cell bumped per selected
// row; slicePlans.fold adds it into a's and b's scratch after the pass.
type jointPlan struct {
	a, b  slicePlan
	table []int64
}

// slicePlans is a pass's plans: narrow candidates paired into joint
// plans, and the narrow plans left unpaired and the wide ones tallied
// alone, split by their column's code width at planning so that each
// tally loop is picked once per pass. tableCells is the cells of every
// joint table; first is the first plan's scratch, nil with no plan;
// seen is planning scratch. A pass's plans live in its pooled passBuf,
// so their arrays are reused across passes.
type slicePlans struct {
	joint        []jointPlan
	narrow, wide []slicePlan
	tableCells   int
	first        []int64
	seen         []uint64
}

// CountSlices counts, in one pass over ds, the A1 = v1 and A1 = v2
// slices of the pair cube (a1, b) for every b in cands, over the rows
// at which every condition of where holds (nil: every row); results
// arrive in cands order and duplicate candidates share one count. It
// tallies every plan over each block of SelectRows' rows, then folds
// the joint tables and the rules' counts. It polls ctx once per block,
// advances the scan counter once and the rows-counted counter by the
// selected rows, and never advances the cubes-built counter.
func CountSlices(ctx context.Context, ds *dataset.Dataset, a1 int, v1, v2 int32, where []car.Condition, cands []int) ([]Slices, Selection, error) {
	if err := validateSliceReq(ds, a1, v1, v2, where, cands); err != nil {
		return nil, Selection{}, err
	}
	if err := faultinject.HitContext(ctx, faultinject.SiteCubeBatch); err != nil {
		return nil, Selection{}, err
	}
	nc, rows := ds.NumClasses(), ds.NumRows()
	b := passBufs.Get().(*passBuf)
	defer putPassBuf(b)
	plans := &b.plans
	tables, rules := plans.plan(ds, nc, cands)
	b.cutTables()
	var selected int64
	s, err := SelectRows(ctx, ds, a1, v1, v2, where, func(blo int, sel, off []int32) {
		selected += int64(len(sel))
		plans.tally(blo, min(blo+scanBlockRows, rows), sel, off, rules)
	})
	if err != nil {
		return nil, Selection{}, err
	}
	plans.fold(rules)
	obsv.Default().Counter(CubeScansCounterName).Inc()
	obsv.Default().Counter(RowsCountedCounterName).Add(selected)
	s.Rules = Slices{dim: 1, nc: nc, stride: 2 * nc, sides: [2][]int64{rules, rules[nc:]}}
	return tables, s, nil
}

// SelectRows walks the rows a comparison of A1 = v1 against A1 = v2
// counts: a1 holds v1 (side 0) or v2 (side 1), the class is present
// and every condition of where holds. Per block of scanBlockRows rows,
// in row order, it polls ctx and calls fn with the block's first row,
// its selected rows' block offsets, ascending, and each one's (side,
// class) offset, side·nc + class, both valid only during the call.
func SelectRows(ctx context.Context, ds *dataset.Dataset, a1 int, v1, v2 int32, where []car.Condition, fn func(lo int, sel, off []int32)) (Selection, error) {
	if err := validateSliceReq(ds, a1, v1, v2, where, nil); err != nil {
		return Selection{}, err
	}
	b := selBufs.Get().(*selBuf)
	defer selBufs.Put(b)
	colA, cls := &ds.Column(a1).Codes, &ds.Column(ds.ClassIndex()).Codes
	switch {
	case colA.IsWide() && cls.IsWide():
		return walkRows(ctx, ds, colA.Wide(), cls.Wide(), v1, v2, where, b, fn)
	case colA.IsWide():
		return walkRows(ctx, ds, colA.Wide(), cls.Narrow(), v1, v2, where, b, fn)
	case cls.IsWide():
		return walkRows(ctx, ds, colA.Narrow(), cls.Wide(), v1, v2, where, b, fn)
	default:
		return walkRows(ctx, ds, colA.Narrow(), cls.Narrow(), v1, v2, where, b, fn)
	}
}

// validateSliceReq rejects a continuous dataset, a non-condition split
// attribute, negative or equal values, conditions and candidates on an
// attribute out of range, the class, the split attribute or one fixed
// already, and a condition value outside its dictionary.
func validateSliceReq(ds *dataset.Dataset, a1 int, v1, v2 int32, where []car.Condition, cands []int) error {
	if !ds.AllCategorical() {
		return fmt.Errorf("rulecube: dataset has continuous attributes; discretize first")
	}
	if a1 < 0 || a1 >= ds.NumAttrs() || a1 == ds.ClassIndex() {
		return fmt.Errorf("rulecube: invalid split attribute %d", a1)
	}
	if v1 < 0 || v2 < 0 || v1 == v2 {
		return fmt.Errorf("rulecube: slice values %d and %d must be distinct codes", v1, v2)
	}
	for i, f := range where {
		switch {
		case f.Attr < 0 || f.Attr >= ds.NumAttrs() || f.Attr == ds.ClassIndex() || f.Attr == a1 ||
			slices.ContainsFunc(where[:i], func(g car.Condition) bool { return g.Attr == f.Attr }):
			return fmt.Errorf("rulecube: invalid or repeated condition attribute %d for split attribute %d", f.Attr, a1)
		case f.Value < 0 || int(f.Value) >= ds.Cardinality(f.Attr):
			return fmt.Errorf("rulecube: condition value %d out of range for attribute %d", f.Value, f.Attr)
		}
	}
	for _, b := range cands {
		if b < 0 || b >= ds.NumAttrs() || b == ds.ClassIndex() || b == a1 || slices.ContainsFunc(where, func(f car.Condition) bool { return f.Attr == b }) {
			return fmt.Errorf("rulecube: invalid candidate attribute %d for split attribute %d and conditions %v", b, a1, where)
		}
	}
	return nil
}

// plan makes one plan per distinct candidate, reusing ps's arrays, and
// returns, per request, the table that views its plan's present-value
// block (slot 0, the missing candidate values, dropped), and the
// 2 × nc cells of the input rules; the pass fills them in place. They
// and every plan's scratch are cut from one fresh allocation, and the
// map from a candidate to its first request is built only when a
// candidate repeats. pairSlices then joins narrow plans in pairs.
func (ps *slicePlans) plan(ds *dataset.Dataset, nc int, cands []int) (tables []Slices, rules []int64) {
	ps.seen = append(ps.seen[:0], make([]uint64, (ds.NumAttrs()+63)/64)...)
	total, repeats := 0, false
	for _, b := range cands {
		if ps.seen[b/64]&(1<<(b%64)) != 0 {
			repeats = true
			continue
		}
		ps.seen[b/64] |= 1 << (b % 64)
		total += (cubeDim(ds, b) + 1) * 2 * nc
	}
	var first map[int]int // candidate -> its first request, if any repeats
	if repeats {
		first = make(map[int]int)
	}
	ps.narrow, ps.wide, ps.first = ps.narrow[:0], ps.wide[:0], nil
	tables = make([]Slices, len(cands))
	slab := make([]int64, 2*nc+total)
	rules, slab = slab[:2*nc:2*nc], slab[2*nc:]
	for i, b := range cands {
		if j, ok := first[b]; ok {
			tables[i] = tables[j]
			continue
		}
		if first != nil {
			first[b] = i
		}
		p := slicePlan{col: ds.Column(b).Codes, dim: cubeDim(ds, b)}
		n := (p.dim + 1) * 2 * nc
		p.scratch, slab = slab[:n:n], slab[n:]
		if ps.first == nil {
			ps.first = p.scratch
		}
		if p.col.IsWide() {
			ps.wide = append(ps.wide, p)
		} else {
			ps.narrow = append(ps.narrow, p)
		}
		present := p.scratch[2*nc:]
		tables[i] = Slices{dim: p.dim, nc: nc, stride: 2 * nc, sides: [2][]int64{present, present[nc:]}}
	}
	ps.pairSlices(nc)
	return tables, rules
}

// pairSlices joins narrow plans in pairs whose joint table holds at
// most jointCells cells, leaving the rest in narrow. By increasing
// dimension, the smallest unpaired plan is joined with the largest one
// it fits beside; a plan that fits beside none of them stays single.
// Singles are parked at the back of narrow, behind the plans still to
// be paired, and moved to its front at the end. The joint tables are
// cut by the pass, from pooled scratch.
func (ps *slicePlans) pairSlices(nc int) {
	narrow := ps.narrow
	slices.SortStableFunc(narrow, func(p, q slicePlan) int { return p.dim - q.dim })
	ps.joint, ps.tableCells = ps.joint[:0], 0
	singles := 0
	for i, j := 0, len(narrow)-1; i <= j; j-- {
		a, b := narrow[i], narrow[j]
		cells := (a.dim + 1) * (b.dim + 1) * 2 * nc
		if i == j || cells > jointCells {
			singles++
			narrow[len(narrow)-singles] = b
			continue
		}
		ps.joint = append(ps.joint, jointPlan{a: a, b: b})
		ps.tableCells += cells
		i++
	}
	ps.narrow = narrow[:copy(narrow, narrow[len(narrow)-singles:])]
}

// passBuf is a pass's pooled scratch: its plans and the cells of its
// joint tables. Nothing a pass returns views it, so it goes back to
// passBufs once the joint tables are folded.
type passBuf struct {
	cells []int64
	plans slicePlans
}

// passBufs pools passBufs across concurrent passes, so that a pass
// reuses the plans and joint tables of an earlier one; selBufs pools a
// walk's block selection.
var passBufs = sync.Pool{New: func() any { return new(passBuf) }}
var selBufs = sync.Pool{New: func() any { return new(selBuf) }}

type selBuf struct{ sel, off [scanBlockRows]int32 }

// cutTables cuts every joint table of b's plans, in order, from b.cells,
// zeroed.
func (b *passBuf) cutTables() {
	n := b.plans.tableCells
	if cap(b.cells) < n {
		b.cells = make([]int64, n)
	} else {
		b.cells = b.cells[:n]
		clear(b.cells)
	}
	cells := b.cells
	for i := range b.plans.joint {
		j := &b.plans.joint[i]
		n := (j.b.dim + 1) * len(j.a.scratch) // (a.dim+1) × (b.dim+1) × 2 × nc
		j.table, cells = cells[:n:n], cells[n:]
	}
}

// putPassBuf returns b to the pool, dropping its plans' references to
// the dataset's columns and the returned tables' scratch.
func putPassBuf(b *passBuf) {
	clear(b.plans.joint[:cap(b.plans.joint)])
	clear(b.plans.narrow[:cap(b.plans.narrow)])
	clear(b.plans.wide[:cap(b.plans.wide)])
	b.plans.first = nil
	passBufs.Put(b)
}

// walkRows is SelectRows' walk, instantiated for the split attribute's
// and the class's code widths. Under conditions selectRows reads
// maskClasses' copy of the classes: without, it pays nothing for them.
func walkRows[A, C dataset.Code](ctx context.Context, ds *dataset.Dataset, colA []A, cls []C, v1, v2 int32, where []car.Condition, b *selBuf, fn func(lo int, sel, off []int32)) (Selection, error) {
	s := Selection{Matched: int64(len(colA))}
	if len(where) > 0 {
		cls, s.Matched = maskClasses(ds, where, cls)
	}
	for blo := 0; blo < len(colA); blo += scanBlockRows {
		if err := ctx.Err(); err != nil {
			return Selection{}, err
		}
		bhi := min(blo+scanBlockRows, len(colA))
		n, present := selectRows(colA[blo:bhi], cls[blo:bhi], v1, v2, int32(ds.NumClasses()), &b.sel, &b.off)
		s.Total += int64(present)
		fn(blo, b.sel[:n], b.off[:n])
	}
	return s, nil
}

// maskClasses returns a copy of the class codes cls holding the missing
// code (all ones, to which +1 adds 0) at every row where a condition of
// where fails, and the number of rows at which every condition holds.
func maskClasses[C dataset.Code](ds *dataset.Dataset, where []car.Condition, cls []C) ([]C, int64) {
	out := make([]C, len(cls))
	for _, f := range where {
		col := &ds.Column(f.Attr).Codes
		for r := range out {
			if col.At(r) != f.Value {
				out[r] = ^C(0)
			}
		}
	}
	var matched int64
	for r, c := range cls {
		matched += int64(out[r] + 1)
		out[r] |= c
	}
	return out, matched
}

// selectRows writes to sel the block offsets of the rows whose split
// value is v1 or v2 and whose class is present, and to off each one's
// (side, class) offset: side·nc + class, side 1 for v2. It writes every
// row's entry at position n and then advances n by whether the row is
// selected, so the loop has no branch that depends on the data: about
// a third of the rows are selected at the benchmark workload's shape,
// and a branch on that mispredicts often. It also returns the rows
// whose split value and class are both present. It is kept out of
// line, so its loop state stays in registers rather than in the
// caller's frame.
//
//go:noinline
func selectRows[A, C dataset.Code](colA []A, cls []C, v1, v2, nc int32, sel, off *[scanBlockRows]int32) (n, present int) {
	cls = cls[:len(colA)]
	for r, a := range colA {
		cl, v := cls[r], int32(a+1)-1
		side, keep, has := int32(0), 0, 1
		if v == v2 {
			side, keep = nc, 1
		}
		if v == v1 {
			keep = 1
		}
		if v < 0 {
			has = 0
		}
		if cl+1 == 0 {
			keep, has = 0, 0
		}
		sel[n], off[n] = int32(r), side+int32(cl)
		n += keep
		present += has
	}
	return n, present
}

// tallySlices bumps, for each selected row of a block, the cell of its
// candidate value (slot 0 if missing) at its (side, class) offset.
func tallySlices[B dataset.Code](col []B, sel, off []int32, stride int, scratch []int64) {
	for j, r := range sel {
		scratch[int(col[r]+1)*stride+int(off[j])]++
	}
}

// tallyJoint bumps, for each selected row of block [blo, bhi), the
// cell of its (a, b) values (slot 0 if missing) at its (side, class)
// offset in j's table.
func tallyJoint(j *jointPlan, blo, bhi int, sel, off []int32, stride int) {
	a, b := j.a.col.Narrow()[blo:bhi], j.b.col.Narrow()[blo:bhi]
	row, t := (j.b.dim+1)*stride, j.table
	for k, r := range sel {
		t[int(a[r]+1)*row+int(b[r]+1)*stride+int(off[k])]++
	}
}

// tally bumps one cell of every plan per selected row of block [blo,
// bhi), one plan per loop over sel/off; with no plan, it counts the
// offsets into rules instead.
func (ps *slicePlans) tally(blo, bhi int, sel, off []int32, rules []int64) {
	stride := len(rules)
	for i := range ps.joint {
		tallyJoint(&ps.joint[i], blo, bhi, sel, off, stride)
	}
	for i := range ps.narrow {
		p := &ps.narrow[i]
		tallySlices(p.col.Narrow()[blo:bhi], sel, off, stride, p.scratch)
	}
	for i := range ps.wide {
		p := &ps.wide[i]
		tallySlices(p.col.Wide()[blo:bhi], sel, off, stride, p.scratch)
	}
	if ps.first == nil {
		for _, o := range off {
			rules[o]++
		}
	}
}

// fold adds each joint table into its two plans' scratch: a's (va,
// side, class) cell gets the table's sum over b's values, b's the sum
// over a's. Then, as every selected row bumped one cell of each plan,
// it adds the first plan's scratch summed over its values into rules.
func (ps *slicePlans) fold(rules []int64) {
	stride := len(rules)
	for _, j := range ps.joint {
		row := (j.b.dim + 1) * stride
		for va := 0; va <= j.a.dim; va++ {
			sa := j.a.scratch[va*stride:][:stride]
			for vb := 0; vb <= j.b.dim; vb++ {
				sb := j.b.scratch[vb*stride:][:stride]
				for o, n := range j.table[va*row+vb*stride:][:stride] {
					sa[o] += n
					sb[o] += n
				}
			}
		}
	}
	for i, n := range ps.first {
		rules[i%stride] += n
	}
}
