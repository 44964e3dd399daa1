package rulecube

import "opmap/internal/dataset"

// CheckBruteForce exposes the brute-force cube check to the external
// test package, whose ingest tests drive the lazy engine (which
// imports this package and so cannot be imported from it).
var CheckBruteForce = checkBruteForce

// planSlices plans a slice pass over cands into fresh plans, as
// CountSlices does into its pooled ones.
func planSlices(ds *dataset.Dataset, nc int, cands []int) (slicePlans, []Slices) {
	var ps slicePlans
	tables := ps.plan(ds, nc, cands)
	return ps, tables
}
