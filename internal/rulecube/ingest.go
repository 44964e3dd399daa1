package rulecube

// This file is the incremental-maintenance path behind streaming
// ingestion: contingency counts are additive, so an appended record
// folds into a materialized cube as a single cell increment instead of
// a rebuild. The only structural wrinkle is dictionary growth — cubes
// share their dictionaries with the dataset, so when an appended row
// registers a new label the cube's dims lag the dictionary until
// SyncDims re-lays the counts array out for the larger domain.

// SyncDims grows the cube's dimensions (and class count) to match its
// dictionaries after appended rows registered new labels, re-laying out
// the counts array. Existing cells keep their coordinates; new cells
// start at zero. Dictionaries only grow, so this is monotone; a no-op
// when nothing changed, which is the steady state.
func (c *Cube) SyncDims() {
	newDims := make([]int, len(c.dims))
	changed := false
	for i, d := range c.dicts {
		card := d.Len()
		if card == 0 {
			card = 1 // mirror Build: an empty domain still needs a slot
		}
		if card < c.dims[i] {
			card = c.dims[i]
		}
		if card != c.dims[i] {
			changed = true
		}
		newDims[i] = card
	}
	newClasses := c.classDict.Len()
	if newClasses < c.numClasses {
		newClasses = c.numClasses
	}
	if !changed && newClasses == c.numClasses {
		return
	}
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
