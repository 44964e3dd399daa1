package opmap

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"opmap/internal/obsv"
	"opmap/internal/snapshot"
)

// Row-sharded builds (DESIGN.md §15). The paper's deployment target —
// 200 GB of call logs a month — is past what one load-once in-memory
// build can hold, but contingency counts are additive: N processes can
// each cube a slice of the logs and the partial stores merge exactly.
// This file is the session-level face of that architecture:
// BuildSharded runs the per-shard builds in parallel and folds them
// into one serving session via Session.MergeFrom; LoadShardSnapshots
// does the same assembly from shard snapshot files a fleet shipped,
// and MergeSnapshotFiles writes that assembly back as one snapshot.

// ShardMergeHistogramName observes the wall-clock seconds of each
// MergeFrom call.
const ShardMergeHistogramName = "opmap_shard_merge_seconds"

// ShardsMergedCounterName counts shards folded into a merge
// destination: MergeFrom advances it by one, so an N-shard snapshot
// assembly by N-1.
const ShardsMergedCounterName = "opmap_shards_merged_total"

// ShardOptions configures BuildSharded.
type ShardOptions struct {
	// Workers bounds the shard builds running concurrently; zero means
	// GOMAXPROCS (and never more than there are shards).
	Workers int
	// Load applies to every shard CSV. Force attribute kinds explicitly
	// (Load.Continuous / Load.Categorical) when a column could sniff
	// differently across shards — a kind mismatch fails the merge naming
	// the attribute.
	Load LoadOptions
	// Discretize, when non-nil, runs on every shard before its cubes
	// build. Shards must end up with bit-identical cut points, so use
	// Manual cuts: method-derived cuts are computed per shard and will
	// almost always differ, which MergeFrom rejects.
	Discretize *DiscretizeOptions
	// Build configures each shard's cube build. Lazy is rejected: a
	// lazy engine holds no complete store to merge.
	Build BuildOptions
}

// BuildSharded loads and cubes each CSV shard concurrently, then merges
// the per-shard sessions in path order into one serving session. The
// result is exactly the session a single load of the concatenated
// shards would produce: dictionary union preserves first-appearance
// order across shards, so codes, cube layouts, and counts all land
// identically. See ShardOptions for the per-shard configuration.
func BuildSharded(paths []string, opts ShardOptions) (*Session, error) {
	return BuildShardedContext(context.Background(), paths, opts)
}

// BuildShardedContext is BuildSharded under a context: cancellation
// stops shard builds between cube counts and is checked between merges.
func BuildShardedContext(ctx context.Context, paths []string, opts ShardOptions) (*Session, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("opmap: BuildSharded needs at least one shard path")
	}
	if opts.Build.Lazy {
		return nil, fmt.Errorf("opmap: sharded builds are eager-only: a lazy engine holds no complete store to merge")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(paths) {
		workers = len(paths)
	}
	sessions := make([]*Session, len(paths))
	errs := make([]error, len(paths))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					errs[i] = ctx.Err()
					continue
				}
				sessions[i], errs[i] = buildShard(ctx, paths[i], opts)
			}
		}()
	}
feed:
	for i := range paths {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if err != nil {
			return nil, fmt.Errorf("opmap: shard %s: %w", paths[i], err)
		}
	}
	base := sessions[0]
	for i, other := range sessions[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := base.MergeFrom(other); err != nil {
			return nil, fmt.Errorf("opmap: merging shard %s: %w", paths[i+1], err)
		}
	}
	return base, nil
}

// buildShard is one worker's unit: load, optionally discretize, cube.
func buildShard(ctx context.Context, path string, opts ShardOptions) (*Session, error) {
	s, err := LoadCSVFile(path, opts.Load)
	if err != nil {
		return nil, err
	}
	if opts.Discretize != nil {
		if err := s.Discretize(*opts.Discretize); err != nil {
			return nil, err
		}
	}
	if err := s.BuildCubesOptions(ctx, opts.Build); err != nil {
		return nil, err
	}
	return s, nil
}

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
	if s.src.Store() == nil || o.src.Store() == nil {
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
	// The store merge unions the working dictionaries (cubes share them)
	// and sums counts, and drops s's drill-down cubes, counted over s's
	// rows alone; the row appends then translate o's codes through the
	// same union — UnionDicts is idempotent, so re-deriving the remap
	// here sees exactly the dictionaries the counts merged under. Raw
	// grows first: a discretized working dataset shares raw's
	// categorical columns and takes their grown codes from it.
	if err := s.src.Merge(o.src); err != nil {
		return err
	}
	if s.raw != s.ds {
		rawRm, err := s.raw.UnionDicts(o.raw)
		if err != nil {
			s.dropEngine()
			return err
		}
		if err := s.raw.AppendRemapped(o.raw, rawRm); err != nil {
			s.dropEngine()
			return err
		}
	}
	rm, err := s.ds.UnionDicts(o.ds)
	if err != nil {
		s.dropEngine()
		return err
	}
	if err := s.ds.AppendRemapped(o.ds, rm); err != nil {
		s.dropEngine()
		return err
	}
	s.results.Invalidate()
	if o.ingestSeq > s.ingestSeq {
		s.ingestSeq = o.ingestSeq
	}
	s.sinceCutEval += o.sinceCutEval
	for k, v := range o.appendDeltas {
		if s.appendDeltas == nil {
			s.appendDeltas = make(map[string]int)
		}
		s.appendDeltas[k] += v
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
