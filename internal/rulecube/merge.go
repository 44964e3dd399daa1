package rulecube

import (
	"fmt"

	"opmap/internal/dataset"
)

// This file is the additive-merge primitive the build, ingest, and
// snapshot layers share. Contingency counts are additive: two cubes
// counted over disjoint row sets combine exactly by cell-wise
// summation, provided both sides agree on what each cell means. When
// they don't — two shards loaded from different CSV slices register
// labels in different orders — the merge remaps source coordinates
// through the dictionary union (dataset.UnionDicts) first. Everything
// that combines counts funnels through here: BuildMany's row-shard
// scratch merge (AddCounts), WAL ingest's delta application
// (AddDelta via IngestRows), and shard-snapshot assembly
// (Store.Merge).

// AddCounts accumulates src into dst element-wise: dst[i] += src[i].
// This is the raw merge primitive for two count arrays with identical
// layout; src must not be longer than dst. Callers whose layouts
// differ (different dims or code orders) go through Cube.Merge, which
// remaps coordinates before summing.
func AddCounts(dst, src []int64) {
	for i, n := range src {
		dst[i] += n
	}
}

// Delta is a sparse bundle of cell increments, keyed by flat cell
// index. Streaming ingest accumulates one per cube per batch — a
// handful of touched cells in a potentially large cube — and folds it
// in with AddDelta, the sparse twin of AddCounts.
type Delta map[int]int64

// AddDelta folds a sparse delta into a counts array: dst[i] += d[i]
// for every keyed cell. Keys must be valid indices into dst.
func AddDelta(dst []int64, d Delta) {
	for i, n := range d {
		dst[i] += n
	}
}

// cellIndex computes the flat condition-cell index of a row for this
// cube, excluding the class factor. rowCodes is the full working row
// (codes indexed by dataset attribute index). A missing value in any
// cube dimension reports ok=false (the row is skipped, as in a full
// count); a code beyond a dimension is an error, never a silent
// miscount.
func (c *Cube) cellIndex(rowCodes []int32) (int, bool, error) {
	idx := 0
	for i, a := range c.attrIdx {
		if a < 0 || a >= len(rowCodes) {
			return 0, false, fmt.Errorf("rulecube: cube dimension %q indexes attribute %d beyond row width %d", c.attrNames[i], a, len(rowCodes))
		}
		v := rowCodes[a]
		if v < 0 {
			return 0, false, nil
		}
		if int(v) >= c.dims[i] {
			return 0, false, fmt.Errorf("rulecube: value code %d for %q beyond dimension %d; SyncDims not run", v, c.attrNames[i], c.dims[i])
		}
		idx = idx*c.dims[i] + int(v)
	}
	return idx, true, nil
}

// IngestRows folds a batch of appended records into the cube. rows
// holds full working-dataset rows (codes indexed by dataset attribute
// index), classes the parallel class codes. Rows with a missing class
// or a missing value in any cube dimension are skipped, exactly as
// BuildMany skips them. The batch is validated in full while
// accumulating a sparse delta, then applied atomically with AddDelta —
// on error nothing has mutated. Returns the number of rows counted.
// The caller must have called SyncDims since the last dictionary
// growth.
func (c *Cube) IngestRows(rows [][]int32, classes []int32) (int, error) {
	if len(rows) != len(classes) {
		return 0, fmt.Errorf("rulecube: %d rows but %d class codes", len(rows), len(classes))
	}
	delta := make(Delta)
	applied := 0
	for r, codes := range rows {
		class := classes[r]
		if class < 0 {
			continue
		}
		if int(class) >= c.numClasses {
			return 0, fmt.Errorf("rulecube: class code %d beyond %d classes; SyncDims not run", class, c.numClasses)
		}
		idx, ok, err := c.cellIndex(codes)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		delta[idx*c.numClasses+int(class)]++
		applied++
	}
	AddDelta(c.counts, delta)
	c.total += int64(applied)
	return applied, nil
}

// IngestRows folds a batch of appended records into every materialized
// cube of the store, growing dimensions first where dictionaries ran
// ahead. Each cube's batch applies atomically, but a mid-store error
// leaves earlier cubes updated — callers treat any error as fatal to
// the engine (the session drops and rebuilds). The caller owns
// concurrency: the store is not safe for writes concurrent with reads.
func (st *Store) IngestRows(rows [][]int32, classes []int32) error {
	if len(rows) == 0 {
		return nil
	}
	for _, a := range st.oneDAttrs() {
		c := st.Cube1(a)
		c.SyncDims()
		if _, err := c.IngestRows(rows, classes); err != nil {
			return err
		}
	}
	for _, p := range st.twoDPairs() {
		c := st.Cube2(p[0], p[1])
		c.SyncDims()
		if _, err := c.IngestRows(rows, classes); err != nil {
			return err
		}
	}
	return nil
}

// Merge folds src's counts into c, remapping source coordinates on the
// way in. dims[i] translates src codes of condition dimension i into
// c's codes (nil means identity), class translates class codes; both
// come from dataset.UnionDicts on the underlying datasets. The two
// cubes must be over the same attribute indices and names. c's
// dictionaries must already hold the union (SyncDims runs here, so
// growth from the union is absorbed); src is never modified.
//
// When the layouts already agree — equal dims, equal class count,
// identity remaps — the merge is one AddCounts pass. Otherwise each
// nonzero source cell is decomposed into coordinates, remapped, and
// recomposed under c's layout.
func (c *Cube) Merge(src *Cube, dims [][]int32, class []int32) error {
	if src == nil {
		return fmt.Errorf("rulecube: merge source cube is nil")
	}
	if len(src.attrIdx) != len(c.attrIdx) {
		return fmt.Errorf("rulecube: cube dimension count mismatch: %d vs %d", len(src.attrIdx), len(c.attrIdx))
	}
	for i := range c.attrIdx {
		if c.attrIdx[i] != src.attrIdx[i] || c.attrNames[i] != src.attrNames[i] {
			return fmt.Errorf("rulecube: cube dimension %d mismatch: %q (attr %d) vs %q (attr %d)",
				i, c.attrNames[i], c.attrIdx[i], src.attrNames[i], src.attrIdx[i])
		}
	}
	if dims != nil && len(dims) != len(src.dims) {
		return fmt.Errorf("rulecube: %d dimension remaps for %d dimensions", len(dims), len(src.dims))
	}
	c.SyncDims()
	if len(src.counts) == 0 {
		c.total += src.total
		return nil
	}

	identity := src.numClasses == c.numClasses && dataset.RemapIsIdentity(class)
	if identity {
		for i := range c.dims {
			if src.dims[i] != c.dims[i] || (dims != nil && !dataset.RemapIsIdentity(dims[i])) {
				identity = false
				break
			}
		}
	}
	if identity {
		AddCounts(c.counts, src.counts)
		c.total += src.total
		return nil
	}

	var total int64
	for flat, v := range src.counts {
		if v == 0 {
			continue
		}
		rem := flat
		cls := rem % src.numClasses
		rem /= src.numClasses
		if class != nil {
			if cls >= len(class) {
				return fmt.Errorf("rulecube: class code %d beyond %d-entry class remap", cls, len(class))
			}
			cls = int(class[cls])
		}
		if cls < 0 || cls >= c.numClasses {
			return fmt.Errorf("rulecube: remapped class code %d beyond %d classes", cls, c.numClasses)
		}
		// Coordinates come out last-dimension-first; fold them into the
		// destination flat index with place values over c's dims, the
		// same recomposition SyncDims uses.
		idx := 0
		place := 1
		for i := len(src.dims) - 1; i >= 0; i-- {
			coord := rem % src.dims[i]
			rem /= src.dims[i]
			if dims != nil && dims[i] != nil {
				tr := dims[i]
				if coord >= len(tr) {
					return fmt.Errorf("rulecube: value code %d for %q beyond %d-entry remap", coord, c.attrNames[i], len(tr))
				}
				coord = int(tr[coord])
			}
			if coord < 0 || coord >= c.dims[i] {
				return fmt.Errorf("rulecube: remapped value code %d for %q beyond dimension %d", coord, c.attrNames[i], c.dims[i])
			}
			idx += coord * place
			place *= c.dims[i]
		}
		c.counts[idx*c.numClasses+cls] += v
		total += v
	}
	c.total += total
	return nil
}

// Merge folds every cube of src into st, unioning the underlying
// datasets' dictionaries first and remapping source counts through the
// union. The two stores must cover the same attribute set; schema
// mismatches surface from UnionDicts naming the offending attribute.
// st's dataset dictionaries grow in place (its cubes share them);
// src — dataset and cubes — is never modified. Row storage is not
// merged: counts describe rows the destination dataset may not hold,
// which is exactly the shard-merge contract (the session layer appends
// remapped rows separately when it needs them).
func (st *Store) Merge(src *Store) error {
	if src == nil {
		return fmt.Errorf("rulecube: merge source store is nil")
	}
	if len(st.attrs) != len(src.attrs) {
		return fmt.Errorf("rulecube: store attribute sets differ: %d vs %d attributes", len(st.attrs), len(src.attrs))
	}
	for i := range st.attrs {
		if st.attrs[i] != src.attrs[i] {
			return fmt.Errorf("rulecube: store attribute sets differ at %d: %d vs %d", i, st.attrs[i], src.attrs[i])
		}
	}
	rm, err := st.ds.UnionDicts(src.ds)
	if err != nil {
		return err
	}
	// The union may have grown st.ds's dictionaries; bring every
	// destination cube to the union layout, including any with no
	// source counterpart.
	st.forEachCube(func(c *Cube) { c.SyncDims() })
	classRemap := rm.Attr(st.ds.ClassIndex())
	for _, a := range src.oneDAttrs() {
		sc := src.Cube1(a)
		dc := st.Cube1(a)
		if dc == nil {
			dc = newCubeHeader(st.ds, []int{a}, st.ds.NumClasses())
			st.putCube1(a, dc)
		}
		if err := dc.Merge(sc, [][]int32{rm.Attr(a)}, classRemap); err != nil {
			return err
		}
	}
	for _, p := range src.twoDPairs() {
		sc := src.Cube2(p[0], p[1])
		dc := st.Cube2(p[0], p[1])
		if dc == nil {
			dc = newCubeHeader(st.ds, []int{p[0], p[1]}, st.ds.NumClasses())
			st.putCube2(p[0], p[1], dc)
		}
		if err := dc.Merge(sc, [][]int32{rm.Attr(p[0]), rm.Attr(p[1])}, classRemap); err != nil {
			return err
		}
	}
	return nil
}
