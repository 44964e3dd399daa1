package rulecube

import "opmap/internal/dataset"

// This file is the incremental-maintenance path behind streaming
// ingestion: contingency counts are additive, so an appended record
// folds into a materialized cube as a single cell increment instead of
// a rebuild. IngestCubes folds the rows just appended to a dataset into
// a whole set of cubes — every resident cube of the engine, pinned or
// not — in three steps: grow each cube's layout to its dictionaries
// (SyncDims), read the appended rows that count (present class) from
// the columns the cubes cover, and increment cells cube by cube.
// Work scales with rows × touched cubes, never with cube size, and a
// cube over an attribute no counted row sets is skipped outright.

// SyncDims grows the cube's dimensions (and class count) to match its
// dictionaries after appended rows registered new labels, re-laying out
// the counts array. Existing cells keep their coordinates; new cells
// start at zero. Dictionaries only grow, so this is monotone. When
// nothing grew — the steady state — it allocates nothing.
func (c *Cube) SyncDims() {
	changed := c.classDict.Len() > c.numClasses
	for i, d := range c.dicts {
		// An empty domain still needs one slot, as in BuildMany.
		if max(d.Len(), 1) > c.dims[i] {
			changed = true
			break
		}
	}
	if !changed {
		return
	}
	newDims := make([]int, len(c.dims))
	for i, d := range c.dicts {
		newDims[i] = max(d.Len(), 1, c.dims[i])
	}
	newClasses := max(c.classDict.Len(), c.numClasses)
	size := newClasses
	for _, d := range newDims {
		size *= d
	}
	nc := make([]int64, size)
	// Walk every old cell, decompose its flat index into coordinates
	// under the old shape, and recompose under the new shape.
	for flat, v := range c.counts {
		if v == 0 {
			continue
		}
		rem := flat
		class := rem % c.numClasses
		rem /= c.numClasses
		idx := 0
		// Coordinates come out last-dimension-first; fold them into the
		// new flat index by walking dims backwards with place values.
		place := 1
		for i := len(c.dims) - 1; i >= 0; i-- {
			coord := rem % c.dims[i]
			rem /= c.dims[i]
			idx += coord * place
			place *= newDims[i]
		}
		nc[idx*newClasses+class] = v
	}
	c.dims = newDims
	c.numClasses = newClasses
	c.counts = nc
}

// IngestCubes folds rows [from, ds.NumRows()) of ds, the rows appended
// since the cubes last counted it, into every cube of cubes, whatever
// its arity. Every cube must count ds: its dimensions index ds's
// attributes and share their dictionaries. Rows with a missing class,
// or a missing value in a cube dimension, are skipped for that cube
// exactly as BuildMany skips them. Each cube first grows its layout to
// its dictionaries (SyncDims), which adds only zero cells and gives
// every appended code a cell.
func IngestCubes(cubes []*Cube, ds *dataset.Dataset, from int) {
	if from >= ds.NumRows() || len(cubes) == 0 {
		return
	}
	for _, c := range cubes {
		c.SyncDims()
	}
	b := readBatch(cubes, ds, from)
	for _, c := range cubes {
		b.apply(c)
	}
}

// ingestBatch holds the appended rows that count anywhere (present
// class), column by column.
type ingestBatch struct {
	classes []int32
	// cols[a] holds attribute a's codes over the counted rows, or nil
	// when no counted row sets a (or no cube covers it).
	cols [][]int32
}

// readBatch reads the counted rows of [from, ds.NumRows()) of every
// attribute some cube covers.
func readBatch(cubes []*Cube, ds *dataset.Dataset, from int) *ingestBatch {
	b := &ingestBatch{cols: make([][]int32, ds.NumAttrs())}
	class := &ds.Column(ds.ClassIndex()).Codes
	var counted []int
	for r := from; r < ds.NumRows(); r++ {
		if v := class.At(r); v >= 0 {
			counted = append(counted, r)
			b.classes = append(b.classes, v)
		}
	}
	covered, n := make([]bool, ds.NumAttrs()), 0
	for _, c := range cubes {
		for _, a := range c.attrIdx {
			if !covered[a] {
				covered[a] = true
				n++
			}
		}
	}
	k := len(counted)
	buf := make([]int32, n*k)
	for a, ok := range covered {
		if !ok {
			continue
		}
		codes := &ds.Column(a).Codes
		col, set := buf[:k:k], false
		for i, r := range counted {
			col[i] = codes.At(r)
			set = set || col[i] >= 0
		}
		if set {
			b.cols[a], buf = col, buf[k:]
		}
	}
	return b
}

// apply increments c's cells for every counted row of the batch with a
// value in each of c's dimensions. A cube over an attribute the batch
// never sets has no such row and is skipped. Pair cubes, nearly all of
// a store, take a loop of their own: the general loop, which serves
// every arity, ran a dense store batch about 4× slower.
func (b *ingestBatch) apply(c *Cube) {
	for _, a := range c.attrIdx {
		if b.cols[a] == nil {
			return
		}
	}
	nc := c.numClasses
	var added int64
	if len(c.attrIdx) == 2 {
		colA, colB := b.cols[c.attrIdx[0]], b.cols[c.attrIdx[1]]
		dimB := c.dims[1]
		for r, va := range colA {
			vb := colB[r]
			if va < 0 || vb < 0 {
				continue
			}
			c.counts[(int(va)*dimB+int(vb))*nc+int(b.classes[r])]++
			added++
		}
		c.total += added
		return
	}
rows:
	for r, class := range b.classes {
		idx := 0
		for i, a := range c.attrIdx {
			v := b.cols[a][r]
			if v < 0 {
				continue rows
			}
			idx = idx*c.dims[i] + int(v)
		}
		c.counts[idx*nc+int(class)]++
		added++
	}
	c.total += added
}
