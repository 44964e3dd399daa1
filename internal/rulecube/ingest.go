package rulecube

import (
	"fmt"
	"math"
)

// This file is the incremental-maintenance path behind streaming
// ingestion: contingency counts are additive, so an appended record
// folds into a materialized cube as a single cell increment instead of
// a rebuild. IngestCubes applies one batch to a whole set of cubes —
// every resident cube of the engine, pinned or not — in four steps:
// grow each cube's layout to its dictionaries (SyncDims), validate
// every row once per attribute, transpose the counted rows into
// per-attribute code columns, and increment cells cube by cube.
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

// IngestCubes folds a batch of appended records into every cube of
// cubes, whatever its arity. rows holds full working-dataset rows of
// width attributes (codes indexed by dataset attribute index), classes
// the parallel class codes; a negative code is a missing value. Rows
// with a missing class, or a missing value in a cube dimension, are
// skipped for that cube exactly as BuildMany skips them.
//
// Each cube first grows its layout to its dictionaries (SyncDims),
// which adds only zero cells. The whole batch is then validated —
// every row's width, every class code against the smallest class
// count, every code against the smallest dimension of any cube over
// its attribute — before any count changes, so on error no cube's
// counts or totals have moved.
func IngestCubes(cubes []*Cube, width int, rows [][]int32, classes []int32) error {
	if len(rows) != len(classes) {
		return fmt.Errorf("rulecube: %d rows but %d class codes", len(rows), len(classes))
	}
	if len(rows) == 0 || len(cubes) == 0 {
		return nil
	}
	for _, c := range cubes {
		c.SyncDims()
	}
	b, err := transposeBatch(cubes, width, rows, classes)
	if err != nil {
		return err
	}
	for _, c := range cubes {
		b.apply(c)
	}
	return nil
}

// ingestBatch is a validated batch in column-major form, restricted to
// the rows that count anywhere (present class).
type ingestBatch struct {
	classes []int32
	// cols[a] holds attribute a's codes over the counted rows, or nil
	// when no counted row sets a (or no cube covers it).
	cols [][]int32
}

// transposeBatch validates the batch against every cube's layout and
// transposes its counted rows into the per-attribute columns that
// every cube's apply reads.
func transposeBatch(cubes []*Cube, width int, rows [][]int32, classes []int32) (*ingestBatch, error) {
	// limit[a] is the smallest dimension over attribute a across the
	// cubes (-1: no cube covers a), name[a] the attribute's name.
	limit := make([]int, width)
	for a := range limit {
		limit[a] = -1
	}
	name := make([]string, width)
	numClasses := math.MaxInt
	for _, c := range cubes {
		numClasses = min(numClasses, c.numClasses)
		for i, a := range c.attrIdx {
			if a < 0 || a >= width {
				return nil, fmt.Errorf("rulecube: cube dimension %q indexes attribute %d beyond row width %d", c.attrNames[i], a, width)
			}
			if limit[a] < 0 || c.dims[i] < limit[a] {
				limit[a] = c.dims[i]
				name[a] = c.attrNames[i]
			}
		}
	}
	// set[a]: some counted row (present class) has a value for a.
	set := make([]bool, width)
	counted, touched := 0, 0
	for r, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("rulecube: row %d has %d codes, dataset has %d attributes", r, len(row), width)
		}
		if int(classes[r]) >= numClasses {
			return nil, fmt.Errorf("rulecube: row %d: class code %d beyond %d classes", r, classes[r], numClasses)
		}
		for a, v := range row {
			if limit[a] < 0 {
				continue
			}
			if int(v) >= limit[a] {
				return nil, fmt.Errorf("rulecube: row %d: value code %d for %q beyond dimension %d", r, v, name[a], limit[a])
			}
			if v >= 0 && classes[r] >= 0 && !set[a] {
				set[a] = true
				touched++
			}
		}
		if classes[r] >= 0 {
			counted++
		}
	}

	b := &ingestBatch{classes: make([]int32, 0, counted), cols: make([][]int32, width)}
	buf := make([]int32, touched*counted)
	for a := range set {
		if set[a] {
			b.cols[a], buf = buf[:counted:counted], buf[counted:]
		}
	}
	for r, row := range rows {
		if classes[r] < 0 {
			continue
		}
		i := len(b.classes)
		b.classes = append(b.classes, classes[r])
		for a, col := range b.cols {
			if col != nil {
				col[i] = row[a]
			}
		}
	}
	return b, nil
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
