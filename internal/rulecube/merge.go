package rulecube

import (
	"fmt"

	"opmap/internal/dataset"
)

// This file is the additive-merge primitive the build and snapshot
// layers share. Contingency counts are additive: two cubes
// counted over disjoint row sets combine exactly by cell-wise
// summation, provided both sides agree on what each cell means. When
// they don't — two shards loaded from different CSV slices register
// labels in different orders — the merge remaps source coordinates
// through the dictionary union (dataset.UnionDicts) first. Everything
// that combines counts funnels through here: BuildMany's row-shard
// scratch merge (AddCounts) and the engine's shard merge, which folds
// each pinned cube through Cube.Merge.
// WAL ingest appends rows rather than counted partials; it folds them
// in cell by cell through IngestCubes (ingest.go).

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
