package rulecube

import (
	"context"

	"opmap/internal/dataset"
)

// CheckBruteForce exposes the brute-force cube check to the external
// test package, whose ingest tests drive the lazy engine (which
// imports this package and so cannot be imported from it).
var CheckBruteForce = checkBruteForce

// planSlices plans a slice pass over cands into fresh plans, as
// CountSlices does into its pooled ones.
func planSlices(ds *dataset.Dataset, nc int, cands []int) (slicePlans, []Slices) {
	var ps slicePlans
	tables, _ := ps.plan(ds, nc, cands)
	return ps, tables
}

// Build counts one rule cube over the given condition attributes of ds,
// as a one-request BuildMany does, for this package's tests.
func Build(ds *dataset.Dataset, attrs []int) (*Cube, error) {
	cubes, err := BuildMany(context.Background(), ds, [][]int{attrs})
	if err != nil {
		return nil, err
	}
	return cubes[0], nil
}
