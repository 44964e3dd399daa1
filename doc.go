// Package opmap is a Go implementation of the Opportunity Map system
// from "Finding Actionable Knowledge via Automated Comparison"
// (Zhang, Liu, Benkler & Zhou, ICDE 2009): a diagnostic data-mining
// toolkit built on class association rules, rule cubes with OLAP
// operations, a general-impressions miner, and — the paper's
// contribution — an automated comparator that ranks attributes by how
// well they explain the difference between two sub-populations with
// respect to a target class.
//
// The typical pipeline is:
//
//	s, err := opmap.LoadCSVFile("calls.csv", opmap.LoadOptions{Class: "Disposition"})
//	// handle err
//	if err := s.Discretize(opmap.DiscretizeOptions{}); err != nil { ... }
//	if err := s.BuildCubes(); err != nil { ... }
//	cmp, err := s.Compare("Phone-Model", "ph1", "ph2", "dropped-in-progress", opmap.CompareOptions{})
//	// cmp.Top(5) now ranks the attributes that best distinguish the two
//	// phones on the drop rate; cmp.PropertyAttributes() holds the
//	// attributes set aside per Section IV.C of the paper.
//
// Fan-out comparisons — Sweep over every significant value pair, or
// CompareOneVsRestAll over every value of the attribute — declare
// their complete cube working set to the engine up front, which
// materializes all missing cubes in one shared dataset scan instead
// of one scan per pair.
//
// DrillDown searches past the one-attribute ranking for condition
// conjunctions: a beam search over rule cubes of three and more
// dimensions that surfaces sub-populations like {Terrain=hilly,
// Signal-Band=weak} whose class confidence exceeds what the pairwise
// comparison predicts, ranked by the paper's contribution measure (or
// lift/conviction via DrillOptions.Measure).
//
// For data too large to load once, each row-shard of one logical
// dataset is loaded and cubed as its own session (or snapshot), and
// MergeFrom folds the shards in path order — exactly, since
// contingency counts are additive — into a session equal to a single
// pass over the concatenated shards. MergeSnapshotFiles and
// LoadShardSnapshots do the same assembly from shard snapshot files,
// which carry their shard's rows, without the source data.
//
// All functionality is deterministic given fixed seeds and uses only the
// Go standard library.
package opmap
