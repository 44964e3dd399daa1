package rulecube

import (
	"context"
	"fmt"
	"slices"
	"sync"

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

// RowsCountedCounterName counts the rows tallied by counting passes:
// every row of a BuildMany scan, and the selected rows (D1 ∪ D2 with a
// present class) of a CountSlices pass.
const RowsCountedCounterName = "opmap_rows_counted_total"

// Slice is the A1 = v slice of one pair cube (A1, B) × class: per B
// value and class, the rows with A1 = v. It views the cube's cells
// without copying them.
type Slice struct {
	dim, nc, stride int
	cells           []int64 // cells[b*stride + class]
}

// Dim returns the number of B values (B's cube dimension).
func (s Slice) Dim() int { return s.dim }

// Fill writes, for every B value b, the slice's rows with B = b into
// cond[b] and those of them in class class into sup[b]. cond and sup
// must hold Dim() entries, and class must be in range.
func (s Slice) Fill(class int32, cond, sup []int64) {
	cond, sup = cond[:s.dim], sup[:s.dim]
	for b := range cond {
		row := s.cells[b*s.stride:][:s.nc]
		var n int64
		for _, c := range row {
			n += c
		}
		cond[b], sup[b] = n, row[class]
	}
}

// SliceOf views the A1 = v slice of a counted pair cube over a1 and
// another attribute, in either dimension order.
func SliceOf(c *Cube, a1 int, v int32) (Slice, error) {
	if len(c.dims) != 2 || (c.attrIdx[0] != a1 && c.attrIdx[1] != a1) {
		return Slice{}, fmt.Errorf("rulecube: cube dimensions %v are not a pair over attribute %d", c.attrIdx, a1)
	}
	posA := 0
	if c.attrIdx[1] == a1 {
		posA = 1
	}
	dimA, dimB, nc := c.dims[posA], c.dims[1-posA], c.numClasses
	if v < 0 || int(v) >= dimA {
		return Slice{}, fmt.Errorf("rulecube: value %d of attribute %q out of range [0,%d)", v, c.attrNames[posA], dimA)
	}
	if posA == 0 { // counts are [va][vb][class]
		return Slice{dim: dimB, nc: nc, stride: nc, cells: c.counts[int(v)*dimB*nc:]}, nil
	}
	// counts are [vb][va][class]
	return Slice{dim: dimB, nc: nc, stride: dimA * nc, cells: c.counts[int(v)*nc:]}, nil
}

// Slices is the A1 = v1 and A1 = v2 slices of one pair cube
// (A1, B) × class: side 0 is v1, side 1 is v2. Rows where A1, B or the
// class is missing are not counted, as in the pair cube. It views the
// counts it was made from without copying them.
type Slices struct {
	dim, nc, stride int
	sides           [2][]int64 // sides[side][v*stride + class]
}

// Dim returns the number of B values (B's cube dimension).
func (s Slices) Dim() int { return s.dim }

// Side returns side (0: A1 = v1, 1: A1 = v2) as a one-side view.
func (s Slices) Side(side int) Slice {
	return Slice{dim: s.dim, nc: s.nc, stride: s.stride, cells: s.sides[side]}
}

// SlicesOf views the A1 = v1 and A1 = v2 slices of a counted pair cube
// over a1 and another attribute, in either dimension order.
func SlicesOf(c *Cube, a1 int, v1, v2 int32) (Slices, error) {
	s1, err := SliceOf(c, a1, v1)
	if err != nil {
		return Slices{}, err
	}
	s2, err := SliceOf(c, a1, v2)
	if err != nil {
		return Slices{}, err
	}
	return Slices{dim: s1.dim, nc: s1.nc, stride: s1.stride, sides: [2][]int64{s1.cells, s2.cells}}, nil
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
// joint table; seen is planning scratch. A pass's plans live in its
// pooled passBuf, so their arrays are reused across passes.
type slicePlans struct {
	joint        []jointPlan
	narrow, wide []slicePlan
	tableCells   int
	seen         []uint64
}

// CountSlices counts, in one pass over ds, the A1 = v1 and A1 = v2
// slices of the pair cube (a1, b) for every b in cands; results arrive
// in cands order and duplicate candidates share one count. The pass
// selects the rows with A1 ∈ {v1, v2} and a present class one
// scanBlockRows block at a time, precomputing each selected row's
// (side, class) offset, then tallies every candidate over the block's
// selection. It polls ctx once per block, advances the scan counter
// once and the rows-counted counter by the selected rows, and never
// advances the cubes-built counter: slices are not cubes.
func CountSlices(ctx context.Context, ds *dataset.Dataset, a1 int, v1, v2 int32, cands []int) ([]Slices, error) {
	if !ds.AllCategorical() {
		return nil, fmt.Errorf("rulecube: dataset has continuous attributes; discretize first")
	}
	if err := validateSliceReq(ds, a1, v1, v2, cands); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faultinject.HitContext(ctx, faultinject.SiteCubeBatch); err != nil {
		return nil, err
	}
	nc := ds.NumClasses()
	b := passBufs.Get().(*passBuf)
	defer putPassBuf(b)
	tables := b.plans.plan(ds, nc, cands)
	b.cutTables()
	colA, cls := &ds.Column(a1).Codes, &ds.Column(ds.ClassIndex()).Codes
	var selected int64
	var err error
	switch {
	case colA.IsWide() && cls.IsWide():
		selected, err = sliceScan(ctx, colA.Wide(), cls.Wide(), v1, v2, nc, b)
	case colA.IsWide():
		selected, err = sliceScan(ctx, colA.Wide(), cls.Narrow(), v1, v2, nc, b)
	case cls.IsWide():
		selected, err = sliceScan(ctx, colA.Narrow(), cls.Wide(), v1, v2, nc, b)
	default:
		selected, err = sliceScan(ctx, colA.Narrow(), cls.Narrow(), v1, v2, nc, b)
	}
	if err != nil {
		return nil, err
	}
	obsv.Default().Counter(CubeScansCounterName).Inc()
	obsv.Default().Counter(RowsCountedCounterName).Add(selected)
	return tables, nil
}

// validateSliceReq rejects a non-condition split attribute, negative or
// equal values, and candidates that are out of range, the class, or
// the split attribute itself.
func validateSliceReq(ds *dataset.Dataset, a1 int, v1, v2 int32, cands []int) error {
	if a1 < 0 || a1 >= ds.NumAttrs() || a1 == ds.ClassIndex() {
		return fmt.Errorf("rulecube: invalid split attribute %d", a1)
	}
	if v1 < 0 || v2 < 0 || v1 == v2 {
		return fmt.Errorf("rulecube: slice values %d and %d must be distinct codes", v1, v2)
	}
	for _, b := range cands {
		if b < 0 || b >= ds.NumAttrs() || b == ds.ClassIndex() || b == a1 {
			return fmt.Errorf("rulecube: invalid candidate attribute %d for split attribute %d", b, a1)
		}
	}
	return nil
}

// plan makes one plan per distinct candidate, reusing ps's arrays, and
// returns, per request, the table that views its plan's present-value
// block (slot 0, the missing candidate values, dropped); the pass fills
// the viewed scratch in place. Every plan's scratch is cut from one
// fresh allocation, which the returned tables keep, and the map from a
// candidate to its first request is built only when a candidate
// repeats. pairSlices then joins narrow plans in pairs.
func (ps *slicePlans) plan(ds *dataset.Dataset, nc int, cands []int) []Slices {
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
	ps.narrow, ps.wide = ps.narrow[:0], ps.wide[:0]
	tables := make([]Slices, len(cands))
	slab := make([]int64, total)
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
		if p.col.IsWide() {
			ps.wide = append(ps.wide, p)
		} else {
			ps.narrow = append(ps.narrow, p)
		}
		present := p.scratch[2*nc:]
		tables[i] = Slices{dim: p.dim, nc: nc, stride: 2 * nc, sides: [2][]int64{present, present[nc:]}}
	}
	ps.pairSlices(nc)
	return tables
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

// passBuf is a pass's pooled scratch: its block selection, its plans
// and the cells of its joint tables. Nothing a pass returns views it,
// so it goes back to passBufs once the joint tables are folded.
type passBuf struct {
	sel, off [scanBlockRows]int32
	cells    []int64
	plans    slicePlans
}

// passBufs pools passBufs across concurrent passes, so that a pass
// reuses the plans and joint tables of an earlier one.
var passBufs = sync.Pool{New: func() any { return new(passBuf) }}

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
	passBufs.Put(b)
}

// sliceScan is CountSlices' pass, instantiated once per pass for the
// split attribute's and the class's code widths: per block, selectRows
// picks the rows of either side with a present class into b's sel/off,
// then every joint plan and every single plan bumps one cell per
// selected row, one plan per loop over sel/off. The +1 shift routes a
// missing candidate value to slot 0, which the caller drops. After the
// last block each joint table is folded into its two plans' scratch. It
// returns the number of rows selected.
func sliceScan[A, C dataset.Code](ctx context.Context, colA []A, cls []C, v1, v2 int32, nc int, b *passBuf) (int64, error) {
	plans := &b.plans
	stride := 2 * nc
	var selected int64
	for blo := 0; blo < len(colA); blo += scanBlockRows {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		bhi := min(blo+scanBlockRows, len(colA))
		n := selectRows(colA[blo:bhi], cls[blo:bhi], v1, v2, int32(nc), &b.sel, &b.off)
		sel, off := b.sel[:n], b.off[:n]
		selected += int64(n)
		for i := range plans.joint {
			tallyJoint(&plans.joint[i], blo, bhi, sel, off, stride)
		}
		for i := range plans.narrow {
			p := &plans.narrow[i]
			tallySlices(p.col.Narrow()[blo:bhi], sel, off, stride, p.scratch)
		}
		for i := range plans.wide {
			p := &plans.wide[i]
			tallySlices(p.col.Wide()[blo:bhi], sel, off, stride, p.scratch)
		}
	}
	plans.fold(stride)
	return selected, nil
}

// selectRows writes to sel the block offsets of the rows whose split
// value is v1 or v2 and whose class is present, and to off each one's
// (side, class) offset: side·nc + class, side 1 for v2. It writes every
// row's entry at position n and then advances n by whether the row is
// selected, so the loop has no branch that depends on the data: about
// a third of the rows are selected at the benchmark workload's shape,
// and a branch on that mispredicts often. It is kept out of line, so
// its loop state stays in registers rather than in the caller's frame.
//
//go:noinline
func selectRows[A, C dataset.Code](colA []A, cls []C, v1, v2, nc int32, sel, off *[scanBlockRows]int32) int {
	cls = cls[:len(colA)]
	n := 0
	for r, a := range colA {
		cl, v := cls[r], int32(a+1)-1
		side, keep := int32(0), 0
		if v == v2 {
			side, keep = nc, 1
		}
		if v == v1 {
			keep = 1
		}
		if cl+1 == 0 {
			keep = 0
		}
		sel[n], off[n] = int32(r), side+int32(cl)
		n += keep
	}
	return n
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

// fold adds each joint table into its two plans' scratch: a's (va,
// side, class) cell gets the table's sum over b's values, b's the sum
// over a's.
func (ps *slicePlans) fold(stride int) {
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
}
