package opmap

import (
	"fmt"
	"math"
	"strings"
	"time"

	"opmap/internal/obsv"
	"opmap/internal/snapshot"
)

// Row-sharded builds (DESIGN.md §15). The paper's deployment target —
// 200 GB of call logs a month — is past what one load-once in-memory
// build can hold, but contingency counts are additive: N processes can
// each cube a slice of the logs and the partial stores merge exactly.
// This file is the session-level face of that architecture:
// Session.MergeFrom folds one shard's session into another, in path
// order; LoadShardSnapshots does that assembly from shard snapshot
// files a fleet shipped, and MergeSnapshotFiles writes it back as one
// snapshot.

// ShardMergeHistogramName observes the wall-clock seconds of each
// MergeFrom call.
const ShardMergeHistogramName = "opmap_shard_merge_seconds"

// ShardsMergedCounterName counts shards folded into a merge
// destination: MergeFrom advances it by one, so an N-shard snapshot
// assembly by N-1.
const ShardsMergedCounterName = "opmap_shards_merged_total"

// MergeFrom folds another session's data and cubes into s: raw and
// working rows append (categorical codes remapped through the
// dictionary union), the eager cube stores merge through the rulecube
// additive-merge primitive, drill-down cubes counted over s's rows
// alone drop (later drills recount the union), the ingest sequence
// reconciles to the maximum, and all cached query results drop. other
// is read-locked and never modified. Merging the row-shards of one dataset in shard order
// reproduces the single-pass session exactly.
//
// Both sessions must hold eagerly built cubes over the same schema and
// bit-identical discretization cuts. A failed merge past validation
// drops s's engine rather than leave counts inconsistent with rows.
// MergeFrom takes s's write lock and then
// other's read lock: callers must not run merges between the same two
// sessions in both directions concurrently.
func (s *Session) MergeFrom(other *Session) error {
	if other == nil {
		return fmt.Errorf("opmap: merge source session is nil")
	}
	if other == s {
		return fmt.Errorf("opmap: cannot merge a session into itself")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	other.mu.RLock()
	defer other.mu.RUnlock()
	return s.mergeFromLocked(other)
}

// mergeFromLocked is MergeFrom's body; s is write-locked, o read-locked.
func (s *Session) mergeFromLocked(o *Session) error {
	if s.src == nil || o.src == nil {
		return fmt.Errorf("opmap: rule cubes not built; call BuildCubes on both sessions first")
	}
	if !s.src.Eager() || !o.src.Eager() {
		return fmt.Errorf("opmap: sharded merge requires eager stores; a lazy engine holds no complete store to merge")
	}
	if (s.raw == s.ds) != (o.raw == o.ds) {
		return fmt.Errorf("opmap: cannot merge a discretized session with an undiscretized one")
	}
	if err := cutsCompatible(s.cuts, o.cuts); err != nil {
		return err
	}
	// Validate both dataset pairs before mutating anything.
	if err := s.ds.CompatibleSchema(o.ds); err != nil {
		return err
	}
	if s.raw != s.ds {
		if err := s.raw.CompatibleSchema(o.raw); err != nil {
			return err
		}
	}
	start := time.Now()
	// One union of the working dictionaries (cubes share them) remaps
	// both the engine merge, which sums the pinned cubes and drops s's
	// drill-down cubes, counted over s's rows alone, and the working row
	// append. Raw grows first: a discretized working dataset shares raw's
	// categorical columns and takes their grown codes from it; raw's own
	// union finds those dictionaries already grown.
	rm, err := s.ds.UnionDicts(o.ds)
	if err != nil {
		return err
	}
	if err := s.src.Merge(o.src, rm); err != nil {
		s.dropEngine()
		return err
	}
	if s.raw != s.ds {
		if err := appendBatch(s.raw, o.raw); err != nil {
			s.dropEngine()
			return err
		}
	}
	if err := s.ds.AppendRemapped(o.ds, rm); err != nil {
		s.dropEngine()
		return err
	}
	s.results.Invalidate()
	if o.ingestSeq > s.ingestSeq {
		s.ingestSeq = o.ingestSeq
	}
	obsv.Default().Histogram(ShardMergeHistogramName, nil).ObserveSince(start)
	obsv.Default().Counter(ShardsMergedCounterName).Inc()
	return nil
}

// LoadShardSnapshots loads eager shard snapshots and merges them, in
// path order, into one ready-to-serve session with zero cube builds —
// the warm-start path for a daemon fed by a fleet of shard builders.
// Each shard loads as LoadSnapshotFile would and folds in through
// MergeFrom, so the result is the session a single load of the
// concatenated shards would build: rows summed, the ingest sequence the
// maximum. A shard that fails to read is named as "opmap: shard
// <path>", one that fails to merge as "opmap: merging shard <path>".
func LoadShardSnapshots(paths ...string) (*Session, error) {
	s, _, _, err := loadShards(paths)
	return s, err
}

// loadShards is LoadShardSnapshots, also returning the header fields a
// snapshot of the assembly records: HashBytes of the newline-joined
// shard hashes in path order, and the latest shard's created time.
func loadShards(paths []string) (s *Session, hash string, created int64, err error) {
	if len(paths) == 0 {
		return nil, "", 0, fmt.Errorf("opmap: LoadShardSnapshots needs at least one snapshot path")
	}
	hashes := make([]string, len(paths))
	for i, p := range paths {
		snap, err := snapshot.ReadFile(p)
		if err != nil {
			return nil, "", 0, fmt.Errorf("opmap: shard %s: %w", p, err)
		}
		shard, err := sessionFromSnapshot(snap)
		if err != nil {
			return nil, "", 0, fmt.Errorf("opmap: shard %s: %w", p, err)
		}
		hashes[i] = snap.SourceHash
		created = max(created, snap.CreatedUnix)
		if s == nil {
			s = shard
		} else if err := s.MergeFrom(shard); err != nil {
			return nil, "", 0, fmt.Errorf("opmap: merging shard %s: %w", p, err)
		}
	}
	return s, snapshot.HashBytes([]byte(strings.Join(hashes, "\n"))), created, nil
}

// MergeSnapshotFiles merges shard snapshot files, in argument order,
// into one serving snapshot at dst: LoadShardSnapshots, then a snapshot
// of the merged session stamped with the assembly's source hash and
// latest created time. dst is written atomically and left untouched on
// error.
func MergeSnapshotFiles(dst string, srcs ...string) error {
	s, hash, created, err := loadShards(srcs)
	if err != nil {
		return err
	}
	snap, err := s.buildSnapshot(SnapshotOptions{SourceHash: hash})
	if err != nil {
		return err
	}
	snap.CreatedUnix = created
	return snapshot.WriteFile(dst, snap)
}

// cutsCompatible requires bit-identical discretization cuts on both
// sides of a merge, naming the first attribute that differs. Cuts
// derived per shard from the shard's own value distribution will not
// match; sharded builds over continuous data must fix cuts up front
// (DiscretizeOptions.Manual).
func cutsCompatible(a, b map[string][]float64) error {
	for name, av := range a {
		bv, ok := b[name]
		if !ok {
			return fmt.Errorf("opmap: discretization cuts for %q missing from merge source", name)
		}
		if len(av) != len(bv) {
			return fmt.Errorf("opmap: discretization cuts for %q differ: %d vs %d points; sharded builds need identical (manual) cuts", name, len(av), len(bv))
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return fmt.Errorf("opmap: discretization cuts for %q differ at point %d; sharded builds need identical (manual) cuts", name, i)
			}
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			return fmt.Errorf("opmap: unexpected discretization cuts for %q in merge source", name)
		}
	}
	return nil
}
