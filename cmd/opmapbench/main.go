// Command opmapbench exercises every instrumented pipeline stage over
// the synthetic call-log case study and writes the recorded stage
// timings as JSON — the benchmark artifact (BENCH_*.json) tracking how
// long the paper's steps take as the codebase grows. Hot-path
// instrumentation is armed, so the per-scan cube-build and per-attribute
// compare histograms are populated too.
//
// Usage:
//
//	opmapbench -records 20000 -seed 1 -rounds 50 -out BENCH.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"opmap"
	"opmap/internal/atomicfile"
	"opmap/internal/compare"
	"opmap/internal/engine"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/wal"
	"opmap/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("opmapbench: ")
	var (
		records = flag.Int("records", 20000, "synthetic call-log records")
		seed    = flag.Int64("seed", 1, "generator seed")
		rounds  = flag.Int("rounds", 50, "permutation test rounds")
		out     = flag.String("out", "BENCH.json", "output file (- for stdout)")
		prev    = flag.String("prev", "", "previous artifact to gate against (skipped when absent)")
		maxReg  = flag.Float64("max-regress", 0.30, "fail when a headline metric regresses more than this fraction vs -prev")
		minScan = flag.Float64("min-scan-reduction", 5.0, "fail when the shared scan does not cut dataset scans by this factor vs the per-pair baseline")
		minBsp  = flag.Float64("min-batch-speedup", 1.0, "fail when the shared-scan build is not this many times faster than the per-pair rebuild baseline (wall clock; scale with core count)")
	)
	flag.Parse()
	if err := run(*records, *seed, *rounds, *out, *prev, *maxReg, *minScan, *minBsp); err != nil {
		log.Fatal(err)
	}
}

// benchDoc is the written artifact: per-stage durations plus the
// hot-path histograms, all taken from the process metrics registry so
// the bench measures exactly what /metrics would report.
type benchDoc struct {
	Records int                   `json:"records"`
	Seed    int64                 `json:"seed"`
	Rounds  int                   `json:"perm_rounds"`
	Stages  map[string]stageStats `json:"stages"`
	Hot     map[string]stageStats `json:"hot"`
	Engine  engineBench           `json:"engine"`
	Snap    snapshotBench         `json:"snapshot"`
	Ingest  ingestBench           `json:"ingest"`
	Batch   batchBench            `json:"batch"`
	Shard   shardBench            `json:"shard"`
	Drill   drillBench            `json:"drilldown"`
	Calib   calibBench            `json:"calibration"`
	// Notes records run conditions the numbers alone cannot show —
	// which previous artifact the regression gate compared against, or
	// why it was skipped.
	Notes []string `json:"notes,omitempty"`
}

// calibBench records machine-speed canaries measured in the same run
// as the headline metrics: a fixed CPU work loop and a fixed
// write+fsync loop. The regression gate divides wall-clock deltas by
// the matching canary ratio before applying its threshold, so that
// container load or disk contention between two artifacts (observed
// drifting disk-bound metrics 40-70% with zero code change) does not
// read as a code regression. Artifacts written before this field
// existed decode it as zero, which downgrades their comparisons to
// advisory warnings.
type calibBench struct {
	CPUMs  float64 `json:"cpu_ms"`
	DiskMs float64 `json:"disk_ms"`
}

// calibSink defeats dead-code elimination of the CPU canary loop.
var calibSink uint64

// benchCalib runs the two canaries. The CPU loop is a fixed xorshift
// mix (no allocation, no memory traffic beyond registers); the disk
// loop is the WAL's own durability pattern — write a block, fsync —
// against a throwaway temp file.
func benchCalib() (calibBench, error) {
	var cb calibBench

	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1<<25; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	cb.CPUMs = msSince(start)

	f, err := os.CreateTemp("", "opmapbench-calib-*")
	if err != nil {
		return cb, fmt.Errorf("disk calibration: %w", err)
	}
	defer os.Remove(f.Name())
	defer func() { _ = f.Close() }() // canary file, nothing durable to lose
	block := make([]byte, 64<<10)
	start = time.Now()
	for i := 0; i < 16; i++ {
		if _, err := f.Write(block); err != nil {
			return cb, fmt.Errorf("disk calibration: %w", err)
		}
		if err := f.Sync(); err != nil {
			return cb, fmt.Errorf("disk calibration: %w", err)
		}
	}
	cb.DiskMs = msSince(start)
	return cb, nil
}

// bestOfRuns is how many times the single-shot sections (engine,
// snapshot, ingest, shard, drilldown) repeat, keeping the fastest
// observation per number. A lone millisecond-scale measurement on a
// shared container swings 30%+ between identical binaries — enough to
// trip the regression gate with zero code change, which the
// calibration canaries cannot catch when the contention is
// intermittent rather than sustained. The fastest observation is the
// one least polluted by scheduler noise, so it is the number two
// artifacts can fairly compare. The batch section stays single-run:
// its gated figures are ratios of two timings from the same run, so
// shared noise divides out.
const bestOfRuns = 3

// keepMin lowers *dst to v when v is smaller.
func keepMin(dst *float64, v float64) {
	if v < *dst {
		*dst = v
	}
}

func benchEngineBest(ctx context.Context, records int, seed int64) (engineBench, error) {
	best, err := benchEngine(ctx, records, seed)
	if err != nil {
		return best, err
	}
	for i := 1; i < bestOfRuns; i++ {
		eb, err := benchEngine(ctx, records, seed)
		if err != nil {
			return best, err
		}
		keepMin(&best.EagerBuildMs, eb.EagerBuildMs)
		keepMin(&best.LazyReadyMs, eb.LazyReadyMs)
		keepMin(&best.EagerCompareMs, eb.EagerCompareMs)
		keepMin(&best.LazyColdCompareMs, eb.LazyColdCompareMs)
		keepMin(&best.LazyWarmCompareMs, eb.LazyWarmCompareMs)
	}
	return best, nil
}

func benchSnapshotBest(ctx context.Context, records int, seed int64) (snapshotBench, error) {
	best, err := benchSnapshot(ctx, records, seed)
	if err != nil {
		return best, err
	}
	for i := 1; i < bestOfRuns; i++ {
		sb, err := benchSnapshot(ctx, records, seed)
		if err != nil {
			return best, err
		}
		keepMin(&best.ColdBuildMs, sb.ColdBuildMs)
		keepMin(&best.SaveMs, sb.SaveMs)
		keepMin(&best.LoadMs, sb.LoadMs)
	}
	if best.LoadMs > 0 {
		best.LoadSpeedup = best.ColdBuildMs / best.LoadMs
	}
	return best, nil
}

func benchShardBest(ctx context.Context, records int) (shardBench, error) {
	best, err := benchShard(ctx, records)
	if err != nil {
		return best, err
	}
	for i := 1; i < bestOfRuns; i++ {
		sb, err := benchShard(ctx, records)
		if err != nil {
			return best, err
		}
		keepMin(&best.SinglePassMs, sb.SinglePassMs)
		for j := range best.Runs {
			if j >= len(sb.Runs) || best.Runs[j].Shards != sb.Runs[j].Shards {
				continue
			}
			keepMin(&best.Runs[j].MaxShardBuildMs, sb.Runs[j].MaxShardBuildMs)
			keepMin(&best.Runs[j].MergeMs, sb.Runs[j].MergeMs)
			keepMin(&best.Runs[j].EndToEndMs, sb.Runs[j].EndToEndMs)
		}
	}
	for j := range best.Runs {
		if best.Runs[j].EndToEndMs > 0 {
			best.Runs[j].SpeedupVsSingle = best.SinglePassMs / best.Runs[j].EndToEndMs
		}
	}
	return best, nil
}

func benchIngestBest(records int) (ingestBench, error) {
	best, err := benchIngest(records)
	if err != nil {
		return best, err
	}
	for i := 1; i < bestOfRuns; i++ {
		ib, err := benchIngest(records)
		if err != nil {
			return best, err
		}
		if ib.RowsPerSec > best.RowsPerSec {
			best.RowsPerSec = ib.RowsPerSec
		}
		keepMin(&best.AppendP50Ms, ib.AppendP50Ms)
		keepMin(&best.AppendP90Ms, ib.AppendP90Ms)
		keepMin(&best.ReplayMs, ib.ReplayMs)
		keepMin(&best.ReplayMsPer1M, ib.ReplayMsPer1M)
	}
	return best, nil
}

func benchDrillBest(ctx context.Context, records int, seed int64) (drillBench, error) {
	best, err := benchDrill(ctx, records, seed)
	if err != nil {
		return best, err
	}
	for i := 1; i < bestOfRuns; i++ {
		db, err := benchDrill(ctx, records, seed)
		if err != nil {
			return best, err
		}
		keepMin(&best.ColdMs, db.ColdMs)
		keepMin(&best.WarmMs, db.WarmMs)
	}
	return best, nil
}

// batchBench contrasts the shared-scan batch comparison engine with
// its sequential alternatives over identical data, each from a cold
// lazy engine. PerPair* is the pre-batch cost model (one independent
// counted build — one dataset scan — per cube in the sweep's working
// set); Seq* is the sequential sweep loop, which still reuses cubes
// through the engine cache; Batch* is the shared-scan path, which must
// cover the whole working set in exactly one dataset scan.
type batchBench struct {
	Cubes          int64   `json:"cubes"`
	BatchBuildMs   float64 `json:"batch_build_ms"`
	PerPairBuildMs float64 `json:"per_pair_build_ms"`
	PerPairScans   int64   `json:"per_pair_scans"`
	BatchSweepMs   float64 `json:"batch_sweep_ms"`
	BatchScans     int64   `json:"batch_scans"`
	SeqSweepMs     float64 `json:"seq_sweep_ms"`
	SeqScans       int64   `json:"seq_scans"`
	AllValuesMs    float64 `json:"all_values_ms"`
	AllValuesScans int64   `json:"all_values_scans"`
	// ScanReduction is per_pair_scans / batch_scans: how many dataset
	// passes the shared scan saves for the working set. It is the
	// machine-independent criterion; the wall-clock ratios below depend
	// on core count, because the per-row tally work is per-cube in both
	// paths and only the pass itself is shared (and sharded).
	ScanReduction float64 `json:"scan_reduction"`
	// SpeedupVsPerPair is per_pair_build_ms / batch_build_ms: the
	// wall-clock ratio of N independent builds to the one shared scan.
	// SpeedupVsSeq is the end-to-end sweep ratio, where the sequential
	// loop already amortizes builds through the engine cache.
	SpeedupVsPerPair float64 `json:"speedup_vs_per_pair"`
	SpeedupVsSeq     float64 `json:"speedup_vs_seq"`
}

// shardBench contrasts the row-sharded build (BuildSharded) with the
// single-pass build over identical data: per-shard build cost, the
// cost of folding the partial stores together, and the parallel
// end-to-end wall clock, at 2, 4 and 8 shards. Merging is exact
// (contingency counts are additive), so the sharded session serves
// the same answers — the bench tracks only what the sharding costs
// and buys.
type shardBench struct {
	Rows         int        `json:"rows"`
	SinglePassMs float64    `json:"single_pass_ms"`
	Runs         []shardRun `json:"runs"`
}

// shardRun is one shard count: MaxShardBuildMs is the slowest shard's
// load+build (the critical path of a perfectly parallel fleet),
// MergeMs the sequential fold of the partial sessions, EndToEndMs the
// actual BuildSharded wall clock with a worker pool.
type shardRun struct {
	Shards          int     `json:"shards"`
	MaxShardBuildMs float64 `json:"max_shard_build_ms"`
	MergeMs         float64 `json:"merge_ms"`
	EndToEndMs      float64 `json:"end_to_end_ms"`
	SpeedupVsSingle float64 `json:"speedup_vs_single_pass"`
}

// ingestBench measures the streaming append path: sustained durable
// throughput (WAL append + fsync + incremental cube maintenance per
// batch), the per-batch latency distribution, and how fast a restart
// replays the log it just wrote.
type ingestBench struct {
	Rows        int     `json:"rows"`
	BatchRows   int     `json:"batch_rows"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	AppendP50Ms float64 `json:"append_p50_ms"`
	AppendP90Ms float64 `json:"append_p90_ms"`
	WalBytes    int64   `json:"wal_bytes"`
	ReplayMs    float64 `json:"replay_ms"`
	// ReplayMsPer1M extrapolates the measured replay rate to one
	// million records, the artifact's comparable unit across runs.
	ReplayMsPer1M float64 `json:"replay_ms_per_1m_records"`
}

// snapshotBench contrasts a cold start (build every cube from raw
// rows) with a warm start (load the snapshot written by the previous
// run) — the daemon's -snapshot-dir trade: one save per source
// version buys every later startup the load path.
type snapshotBench struct {
	ColdBuildMs   float64 `json:"cold_build_ms"`
	SaveMs        float64 `json:"save_ms"`
	LoadMs        float64 `json:"load_ms"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	// LoadSpeedup is cold_build_ms / load_ms: how many times faster a
	// warm start is than rebuilding.
	LoadSpeedup float64 `json:"load_speedup_vs_build"`
}

// engineBench contrasts the two build modes over identical data: what
// eager pays up front, what lazy pays on the first query, and what a
// repeated query costs once the result cache is warm.
type engineBench struct {
	EagerBuildMs      float64 `json:"eager_build_ms"`
	LazyReadyMs       float64 `json:"lazy_ready_ms"`
	EagerCompareMs    float64 `json:"eager_compare_ms"`
	LazyColdCompareMs float64 `json:"lazy_cold_compare_ms"`
	LazyWarmCompareMs float64 `json:"lazy_warm_compare_ms"`
	LazyTwoDBuilds    int64   `json:"lazy_twod_builds"`
	LazyCubeBytes     int64   `json:"lazy_cube_bytes"`
}

type stageStats struct {
	Count     int64   `json:"count"`
	SumSec    float64 `json:"sum_seconds"`
	MeanMs    float64 `json:"mean_ms"`
	TotalMsec float64 `json:"total_ms"`
}

func run(records int, seed int64, rounds int, out, prev string, maxRegress, minScanReduction, minBatchSpeedup float64) error {
	obsv.ArmHot(true)
	ctx := context.Background()

	sess, gt, err := opmap.CaseStudy(seed, records)
	if err != nil {
		return err
	}
	if err := sess.BuildCubesContext(ctx); err != nil {
		return err
	}
	if _, err := sess.CompareContext(ctx, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opmap.CompareOptions{}); err != nil {
		return err
	}
	if _, err := sess.CompareOneVsRestContext(ctx, gt.PhoneAttr, gt.BadPhone, gt.DropClass, opmap.CompareOptions{}); err != nil {
		return err
	}
	if _, err := sess.SweepContext(ctx, gt.PhoneAttr, gt.DropClass, 6); err != nil {
		return err
	}
	if _, err := sess.TestSignificanceContext(ctx, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, gt.DistinguishingAttr, rounds, seed); err != nil {
		return err
	}
	if _, err := sess.ImpressionsContext(ctx, opmap.ImpressionOptions{}); err != nil {
		return err
	}

	engine, err := benchEngineBest(ctx, records, seed)
	if err != nil {
		return err
	}
	snap, err := benchSnapshotBest(ctx, records, seed)
	if err != nil {
		return err
	}
	ingest, err := benchIngestBest(records)
	if err != nil {
		return err
	}
	batch, err := benchBatch(ctx, records, seed)
	if err != nil {
		return err
	}
	shard, err := benchShardBest(ctx, records)
	if err != nil {
		return err
	}
	drillb, err := benchDrillBest(ctx, records, seed)
	if err != nil {
		return err
	}
	calib, err := benchCalib()
	if err != nil {
		return err
	}

	doc := benchDoc{
		Records: records,
		Seed:    seed,
		Rounds:  rounds,
		Stages:  map[string]stageStats{},
		Hot:     map[string]stageStats{},
		Engine:  engine,
		Snap:    snap,
		Ingest:  ingest,
		Batch:   batch,
		Shard:   shard,
		Drill:   drillb,
		Calib:   calib,
	}
	// The artifact series has a hole: PR 6 recorded no bench run, so the
	// -prev chain skips from BENCH_pr5.json to BENCH_pr7.json.
	doc.Notes = append(doc.Notes, "artifact series gap: BENCH_pr6.json was never recorded; the -prev chain jumps pr5 -> pr7")
	doc.Notes = append(doc.Notes, "engine/snapshot/ingest/shard/drilldown numbers are best-of-3 (fastest observation) from this artifact on; earlier artifacts recorded single shots")
	reg := obsv.Default()
	for _, stage := range obsv.PipelineStages {
		doc.Stages[stage] = toStats(reg.Histogram(obsv.StageHistogramName, nil, "stage", stage))
	}
	doc.Hot[obsv.CubeBuildHistogramName] = toStats(reg.Histogram(obsv.CubeBuildHistogramName, nil))
	doc.Hot[obsv.CompareAttrHistogramName] = toStats(reg.Histogram(obsv.CompareAttrHistogramName, nil))

	// Gate before writing fails the run but after assembling the doc, so
	// a failing run still leaves the numbers on disk to inspect.
	gateErr := checkGates(&doc, prev, maxRegress, minScanReduction, minBatchSpeedup)

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		if _, err = os.Stdout.Write(enc); err != nil {
			return err
		}
		return gateErr
	}
	if err := atomicfile.WriteFile(out, func(w io.Writer) error {
		_, werr := w.Write(enc)
		return werr
	}); err != nil {
		return fmt.Errorf("opmapbench: writing report %s: %w", out, err)
	}
	fmt.Printf("wrote %s (%d stages)\n", out, len(doc.Stages))
	return gateErr
}

// benchBatch measures the shared-scan batch comparison engine: the
// full sweep working set (the split attribute's marginal plus one pair
// cube per candidate) built three ways, then the all-values
// one-vs-rest fan-out, with the dataset-scan counter recording how
// many full passes each path paid.
func benchBatch(ctx context.Context, records int, seed int64) (batchBench, error) {
	var bb batchBench
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: seed, Records: records, NumPhones: 8, NoiseAttrs: 35})
	if err != nil {
		return bb, err
	}
	attr := ds.AttrIndex(gt.PhoneAttr)
	cls, ok := ds.ClassDict().Lookup(gt.DropClass)
	if !ok {
		return bb, fmt.Errorf("opmapbench: class %q missing from the generated log", gt.DropClass)
	}
	scans := obsv.Default().Counter(rulecube.CubeScansCounterName)

	// The sweep's declared working set, as prefetched by the batch path.
	reqs := [][]int{{attr}}
	for ai := 0; ai < ds.NumAttrs(); ai++ {
		if ai == attr || ai == ds.ClassIndex() {
			continue
		}
		reqs = append(reqs, []int{attr, ai})
	}
	bb.Cubes = int64(len(reqs))

	// Per-pair rebuild baseline: N independent builds, one full dataset
	// scan each — the cost model the batch engine replaces.
	s0 := scans.Value()
	start := time.Now()
	for _, attrs := range reqs {
		if _, err := rulecube.Build(ds, attrs); err != nil {
			return bb, err
		}
	}
	bb.PerPairBuildMs = msSince(start)
	bb.PerPairScans = scans.Value() - s0

	// The same working set from one shared scan.
	start = time.Now()
	if _, err := rulecube.BuildMany(ctx, ds, reqs); err != nil {
		return bb, err
	}
	bb.BatchBuildMs = msSince(start)

	// Sequential sweep on a cold lazy engine: one build per cube, but
	// cubes are cached and reused across the value pairs.
	seqEng, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		return bb, err
	}
	s0 = scans.Value()
	start = time.Now()
	if _, err := compare.NewSource(seqEng).SweepContext(ctx, attr, cls, compare.SweepOptions{DisableBatch: true}); err != nil {
		return bb, err
	}
	bb.SeqSweepMs = msSince(start)
	bb.SeqScans = scans.Value() - s0

	// Batched sweep on an identical cold engine: the whole working set
	// from one shared scan.
	batchEng, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		return bb, err
	}
	s0 = scans.Value()
	start = time.Now()
	if _, err := compare.NewSource(batchEng).SweepContext(ctx, attr, cls, compare.SweepOptions{}); err != nil {
		return bb, err
	}
	bb.BatchSweepMs = msSince(start)
	bb.BatchScans = scans.Value() - s0

	// The all-values one-vs-rest fan-out, also cold and batched.
	allEng, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		return bb, err
	}
	s0 = scans.Value()
	start = time.Now()
	if _, err := compare.NewSource(allEng).OneVsRestAllContext(ctx, attr, cls, compare.OneVsRestAllOptions{}); err != nil {
		return bb, err
	}
	bb.AllValuesMs = msSince(start)
	bb.AllValuesScans = scans.Value() - s0

	if bb.BatchScans > 0 {
		bb.ScanReduction = float64(bb.PerPairScans) / float64(bb.BatchScans)
	}
	if bb.BatchBuildMs > 0 {
		bb.SpeedupVsPerPair = bb.PerPairBuildMs / bb.BatchBuildMs
	}
	if bb.BatchSweepMs > 0 {
		bb.SpeedupVsSeq = bb.SeqSweepMs / bb.BatchSweepMs
	}
	return bb, nil
}

// benchShard writes a purely categorical synthetic workload as one
// whole CSV plus contiguous shard files, then measures the sharded
// build three ways per shard count: each shard's load+build alone
// (max = the fleet's critical path), the sequential merge of the
// prebuilt shard sessions, and BuildSharded end to end.
func benchShard(ctx context.Context, records int) (shardBench, error) {
	sb := shardBench{Rows: records}
	dir, err := os.MkdirTemp("", "opmapbench-shard-")
	if err != nil {
		return sb, err
	}
	defer os.RemoveAll(dir)

	header := "Region,Model,Band,Cell,Firmware,Outcome"
	attrs := strings.Split(header, ",")
	load := opmap.LoadOptions{Class: "Outcome", Categorical: attrs}
	rowAt := func(j int) string {
		return fmt.Sprintf("r%d,m%d,b%d,c%d,f%d,o%d",
			j%5, (j*7)%11, (j*13)%4, (j*29)%23, (j*3)%6, (j*17)%3)
	}
	writeRows := func(name string, lo, hi int) (string, error) {
		path := filepath.Join(dir, name)
		var b strings.Builder
		b.WriteString(header)
		b.WriteByte('\n')
		for j := lo; j < hi; j++ {
			b.WriteString(rowAt(j))
			b.WriteByte('\n')
		}
		return path, os.WriteFile(path, []byte(b.String()), 0o600)
	}

	all, err := writeRows("all.csv", 0, records)
	if err != nil {
		return sb, err
	}
	start := time.Now()
	single, err := opmap.LoadCSVFile(all, load)
	if err != nil {
		return sb, err
	}
	if err := single.BuildCubesContext(ctx); err != nil {
		return sb, err
	}
	sb.SinglePassMs = msSince(start)

	for _, n := range []int{2, 4, 8} {
		chunk := (records + n - 1) / n
		paths := make([]string, 0, n)
		for i := 0; i < n; i++ {
			lo, hi := i*chunk, (i+1)*chunk
			if hi > records {
				hi = records
			}
			p, err := writeRows(fmt.Sprintf("shard%d_of_%d.csv", i, n), lo, hi)
			if err != nil {
				return sb, err
			}
			paths = append(paths, p)
		}
		run := shardRun{Shards: n}

		// Staged: per-shard builds sequentially (isolating each shard's
		// cost from pool scheduling), then the merge fold alone.
		sessions := make([]*opmap.Session, n)
		for i, p := range paths {
			t := time.Now()
			s, err := opmap.LoadCSVFile(p, load)
			if err != nil {
				return sb, err
			}
			if err := s.BuildCubesContext(ctx); err != nil {
				return sb, err
			}
			if ms := msSince(t); ms > run.MaxShardBuildMs {
				run.MaxShardBuildMs = ms
			}
			sessions[i] = s
		}
		t := time.Now()
		for _, other := range sessions[1:] {
			if err := sessions[0].MergeFrom(other); err != nil {
				return sb, err
			}
		}
		run.MergeMs = msSince(t)

		// End to end: the real worker-pool path.
		t = time.Now()
		if _, err := opmap.BuildShardedContext(ctx, paths, opmap.ShardOptions{Load: load}); err != nil {
			return sb, err
		}
		run.EndToEndMs = msSince(t)
		if run.EndToEndMs > 0 {
			run.SpeedupVsSingle = sb.SinglePassMs / run.EndToEndMs
		}
		sb.Runs = append(sb.Runs, run)
	}
	return sb, nil
}

// drillBench measures the multi-condition drill-down over the planted
// two-condition workload: the cold search on a lazy engine (k-D cubes
// materialized on demand, batched per frontier depth), the warm repeat
// served by the session result cache, and the search size. Recovered
// reports whether the run's top finding is the planted condition pair
// — the paper-level acceptance criterion, carried in the artifact so a
// quality regression is as visible as a latency one.
type drillBench struct {
	ColdMs    float64 `json:"cold_ms"`
	WarmMs    float64 `json:"warm_ms"`
	Expanded  int     `json:"expanded"`
	Findings  int     `json:"findings"`
	Recovered bool    `json:"recovered_planted_pair"`
}

// benchDrill runs the drill-down twice on a lazy session over the
// drill-case workload: cold (builds its 3-D cubes on demand) and warm
// (memoized).
func benchDrill(ctx context.Context, records int, seed int64) (drillBench, error) {
	var db drillBench
	sess, gt, err := opmap.GenerateDrillCase(seed, records)
	if err != nil {
		return db, err
	}
	if err := sess.BuildCubesOptions(ctx, opmap.BuildOptions{Lazy: true}); err != nil {
		return db, err
	}
	start := time.Now()
	res, err := sess.DrillDownContext(ctx, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opmap.DrillOptions{})
	if err != nil {
		return db, err
	}
	db.ColdMs = msSince(start)
	db.Expanded = res.Expanded
	db.Findings = len(res.Findings)
	if top := res.Top(1); len(top) == 1 && top[0].Depth == 2 {
		conds := map[string]string{}
		for _, c := range top[0].Conds {
			conds[c.Attr] = c.Value
		}
		db.Recovered = conds[gt.JointAttrA] == gt.JointValueA && conds[gt.JointAttrB] == gt.JointValueB
	}
	start = time.Now()
	if _, err := sess.DrillDownContext(ctx, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opmap.DrillOptions{}); err != nil {
		return db, err
	}
	db.WarmMs = msSince(start)
	return db, nil
}

// Calibration classes for headline metrics: which canary tracks the
// resource a metric's wall clock is dominated by.
const (
	calibCPU  = "cpu"
	calibDisk = "disk"
)

// maxCalibScale caps how far the canary ratio may loosen the
// regression threshold: beyond a 3x machine slowdown the gate still
// fires, so a real regression cannot hide behind arbitrary load.
const maxCalibScale = 3.0

// headlineMetrics are the artifact numbers the regression gate tracks
// across PRs. Small absolute values (sub-millisecond warm paths) are
// deliberately excluded: at that scale a 30% swing is scheduler noise,
// not a regression.
var headlineMetrics = []struct {
	name   string
	get    func(*benchDoc) float64
	higher bool   // true when larger is better (throughput)
	class  string // calibCPU or calibDisk: which canary normalizes it
}{
	{"engine.eager_build_ms", func(d *benchDoc) float64 { return d.Engine.EagerBuildMs }, false, calibCPU},
	{"engine.lazy_cold_compare_ms", func(d *benchDoc) float64 { return d.Engine.LazyColdCompareMs }, false, calibCPU},
	{"snapshot.cold_build_ms", func(d *benchDoc) float64 { return d.Snap.ColdBuildMs }, false, calibCPU},
	{"snapshot.save_ms", func(d *benchDoc) float64 { return d.Snap.SaveMs }, false, calibDisk},
	{"snapshot.load_ms", func(d *benchDoc) float64 { return d.Snap.LoadMs }, false, calibDisk},
	{"ingest.rows_per_sec", func(d *benchDoc) float64 { return d.Ingest.RowsPerSec }, true, calibDisk},
	{"ingest.replay_ms_per_1m_records", func(d *benchDoc) float64 { return d.Ingest.ReplayMsPer1M }, false, calibDisk},
	{"shard.end_to_end_2_shards_ms", func(d *benchDoc) float64 {
		for _, r := range d.Shard.Runs {
			if r.Shards == 2 {
				return r.EndToEndMs
			}
		}
		return 0
	}, false, calibCPU},
}

// calibScale returns the threshold multiplier for a metric class: how
// much slower this machine measured than the one that recorded the
// previous artifact, clamped to [1, maxCalibScale]. The floor means a
// faster machine never loosens the gate; ok is false when either
// artifact lacks the canary, downgrading that comparison to advisory.
func calibScale(now, prev *calibBench, class string) (scale float64, ok bool) {
	var n, p float64
	switch class {
	case calibCPU:
		n, p = now.CPUMs, prev.CPUMs
	case calibDisk:
		n, p = now.DiskMs, prev.DiskMs
	}
	if n <= 0 || p <= 0 {
		return 1, false
	}
	s := n / p
	if s < 1 {
		s = 1
	}
	if s > maxCalibScale {
		s = maxCalibScale
	}
	return s, true
}

// checkGates applies the bench gates, recording what was checked (or
// why a check was skipped) in the artifact's notes:
//   - the batch acceptance gate: a full batched sweep must take exactly
//     one dataset scan, cut dataset scans by minScanReduction vs the
//     per-pair baseline recorded in the same run, and not fall below
//     the minBatchSpeedup wall-clock floor;
//   - the regression gate: no headline metric may regress more than
//     maxRegress vs the previous artifact, after normalizing by the
//     calibration canary ratio so machine drift between the two runs
//     is not read as a code regression. A missing previous artifact
//     skips the comparison rather than failing a fresh checkout; a
//     previous artifact that predates the canaries downgrades its
//     over-threshold deltas to advisory WARN notes, because wall
//     clocks from unknown machine states cannot be compared honestly
//     (observed: disk-bound baselines drifted 40-70% under container
//     load with zero code change).
func checkGates(doc *benchDoc, prev string, maxRegress, minScanReduction, minBatchSpeedup float64) error {
	var failures []string
	if doc.Batch.BatchScans != 1 {
		failures = append(failures, fmt.Sprintf("batched sweep performed %d dataset scans, want exactly 1", doc.Batch.BatchScans))
	}
	if doc.Batch.ScanReduction < minScanReduction {
		failures = append(failures, fmt.Sprintf("shared scan cut dataset scans by %.1fx vs the per-pair baseline, below the %.1fx gate",
			doc.Batch.ScanReduction, minScanReduction))
	}
	if doc.Batch.SpeedupVsPerPair < minBatchSpeedup {
		failures = append(failures, fmt.Sprintf("shared-scan build is %.2fx the per-pair rebuild baseline, below the %.1fx wall-clock floor",
			doc.Batch.SpeedupVsPerPair, minBatchSpeedup))
	}

	if prev == "" {
		doc.Notes = append(doc.Notes, "regression gate: no previous artifact configured (-prev)")
	} else if prevDoc, err := readPrevDoc(prev); err != nil {
		doc.Notes = append(doc.Notes, fmt.Sprintf("regression gate skipped: %v", err))
		log.Printf("regression gate skipped: %v", err)
	} else {
		doc.Notes = append(doc.Notes, fmt.Sprintf("regression gate: compared against %s at max regression %.0f%%", prev, maxRegress*100))
		for _, m := range headlineMetrics {
			was, now := m.get(prevDoc), m.get(doc)
			if was <= 0 {
				continue // metric absent from the older artifact
			}
			scale, armed := calibScale(&doc.Calib, &prevDoc.Calib, m.class)
			worse := (m.higher && now < was*(1-maxRegress)/scale) ||
				(!m.higher && now > was*(1+maxRegress)*scale)
			if !worse {
				continue
			}
			msg := fmt.Sprintf("%s moved %.2f -> %.2f (beyond %.0f%% at %s-calibration scale %.2f)",
				m.name, was, now, maxRegress*100, m.class, scale)
			if !armed {
				// No canary in the older artifact: the delta may be the
				// machine, not the code. Record it loudly, don't fail.
				doc.Notes = append(doc.Notes, fmt.Sprintf(
					"WARN: %s — advisory only, %s predates the calibration canaries", msg, prev))
				log.Printf("regression gate warning: %s (advisory: %s has no %s canary)", msg, prev, m.class)
				continue
			}
			failures = append(failures, msg)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// readPrevDoc loads a previous artifact for the regression gate. New
// fields absent from older artifacts decode as zero and are skipped by
// the per-metric checks.
func readPrevDoc(path string) (*benchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("previous artifact %s: %w", path, err)
	}
	return &doc, nil
}

// benchEngine times eager vs lazy cold start and a warm-cache repeat
// of the same compare, on fresh sessions over identical data.
func benchEngine(ctx context.Context, records int, seed int64) (engineBench, error) {
	var eb engineBench

	eager, gt, err := opmap.CaseStudy(seed, records)
	if err != nil {
		return eb, err
	}
	lazy, _, err := opmap.CaseStudy(seed, records)
	if err != nil {
		return eb, err
	}

	start := time.Now()
	if err := eager.BuildCubesContext(ctx); err != nil {
		return eb, err
	}
	eb.EagerBuildMs = msSince(start)

	start = time.Now()
	if err := lazy.BuildCubesOptions(ctx, opmap.BuildOptions{Lazy: true}); err != nil {
		return eb, err
	}
	eb.LazyReadyMs = msSince(start)

	start = time.Now()
	if _, err := eager.CompareContext(ctx, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opmap.CompareOptions{}); err != nil {
		return eb, err
	}
	eb.EagerCompareMs = msSince(start)

	start = time.Now()
	if _, err := lazy.CompareContext(ctx, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opmap.CompareOptions{}); err != nil {
		return eb, err
	}
	eb.LazyColdCompareMs = msSince(start)

	start = time.Now()
	if _, err := lazy.CompareContext(ctx, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opmap.CompareOptions{}); err != nil {
		return eb, err
	}
	eb.LazyWarmCompareMs = msSince(start)

	st := lazy.EngineStats()
	eb.LazyTwoDBuilds = st.TwoDBuilds
	eb.LazyCubeBytes = st.CubeCacheBytes
	return eb, nil
}

// benchSnapshot times the durable-session cycle: cold cube build,
// snapshot save, snapshot load into a ready-to-serve session. The
// loaded session answers one compare so the load number covers a
// usable engine, not just parsing.
func benchSnapshot(ctx context.Context, records int, seed int64) (snapshotBench, error) {
	var sb snapshotBench

	sess, gt, err := opmap.CaseStudy(seed, records)
	if err != nil {
		return sb, err
	}
	start := time.Now()
	if err := sess.BuildCubesContext(ctx); err != nil {
		return sb, err
	}
	sb.ColdBuildMs = msSince(start)

	dir, err := os.MkdirTemp("", "opmapbench-snap-")
	if err != nil {
		return sb, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.omapsnap")
	hash := opmap.HashSourceString(fmt.Sprintf("bench seed=%d records=%d", seed, records))
	start = time.Now()
	if err := sess.SaveSnapshotFile(path, opmap.SnapshotOptions{SourceHash: hash}); err != nil {
		return sb, err
	}
	sb.SaveMs = msSince(start)
	if fi, err := os.Stat(path); err == nil {
		sb.SnapshotBytes = fi.Size()
	}

	start = time.Now()
	warm, err := opmap.LoadSnapshotFile(path)
	if err != nil {
		return sb, err
	}
	if _, err := warm.CompareContext(ctx, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opmap.CompareOptions{}); err != nil {
		return sb, err
	}
	sb.LoadMs = msSince(start)
	if sb.LoadMs > 0 {
		sb.LoadSpeedup = sb.ColdBuildMs / sb.LoadMs
	}
	return sb, nil
}

// benchIngest streams batches through the durable append path a
// daemon ingest takes — WAL append with per-record fsync, then
// Session.Append — and then replays the written log into a fresh
// session, timing both directions.
func benchIngest(records int) (ingestBench, error) {
	const batchRows = 50
	ib := ingestBench{BatchRows: batchRows}
	// Bound the fsync-per-batch loop so the bench stays snappy at large
	// -records; throughput and replay rate are per-row figures anyway.
	ib.Rows = records
	if ib.Rows > 10000 {
		ib.Rows = 10000
	}

	base, err := ingestSession()
	if err != nil {
		return ib, err
	}
	dir, err := os.MkdirTemp("", "opmapbench-wal-")
	if err != nil {
		return ib, err
	}
	defer os.RemoveAll(dir)
	lg, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return ib, err
	}

	batches := ib.Rows / batchRows
	latencies := make([]float64, 0, batches)
	start := time.Now()
	for b := 0; b < batches; b++ {
		rows := ingestRows(b*batchRows, batchRows)
		bStart := time.Now()
		seq, err := lg.Append(wal.EncodeRows(rows))
		if err != nil {
			return ib, err
		}
		if err := base.AppendSeq(context.Background(), rows, seq); err != nil {
			return ib, err
		}
		latencies = append(latencies, msSince(bStart))
	}
	elapsed := time.Since(start).Seconds()
	if err := lg.Close(); err != nil {
		return ib, err
	}
	if elapsed > 0 {
		ib.RowsPerSec = float64(batches*batchRows) / elapsed
	}
	sort.Float64s(latencies)
	if n := len(latencies); n > 0 {
		ib.AppendP50Ms = latencies[n/2]
		ib.AppendP90Ms = latencies[n*9/10]
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if fi, err := e.Info(); err == nil {
				ib.WalBytes += fi.Size()
			}
		}
	}

	// Replay the log into a fresh session — the restart path.
	fresh, err := ingestSession()
	if err != nil {
		return ib, err
	}
	lg, err = wal.Open(dir, wal.Options{})
	if err != nil {
		return ib, err
	}
	defer lg.Close()
	start = time.Now()
	n, err := lg.Replay(1, func(seq uint64, payload []byte) error {
		rows, derr := wal.DecodeRows(payload)
		if derr != nil {
			return derr
		}
		return fresh.AppendSeq(context.Background(), rows, seq)
	})
	if err != nil {
		return ib, err
	}
	ib.ReplayMs = msSince(start)
	if replayed := n * batchRows; replayed > 0 {
		ib.ReplayMsPer1M = ib.ReplayMs / float64(replayed) * 1e6
	}
	return ib, nil
}

// ingestSession builds a small mixed-schema session whose rows
// ingestRows can generate.
func ingestSession() (*opmap.Session, error) {
	var b strings.Builder
	b.WriteString("Region,Model,Temp,Load,Outcome\n")
	for _, r := range ingestRows(0, 100) {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	sess, err := opmap.LoadCSV(strings.NewReader(b.String()), opmap.LoadOptions{})
	if err != nil {
		return nil, err
	}
	if err := sess.Discretize(opmap.DiscretizeOptions{Manual: map[string][]float64{
		"Temp": {25, 50, 75},
		"Load": {20, 40, 60},
	}}); err != nil {
		return nil, err
	}
	if err := sess.BuildCubes(); err != nil {
		return nil, err
	}
	return sess, nil
}

// ingestRows generates n deterministic rows starting at offset off.
func ingestRows(off, n int) [][]string {
	regions := []string{"north", "south", "east", "west"}
	models := []string{"m1", "m2", "m3"}
	classes := []string{"ok", "fail", "slow"}
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		j := off + i
		rows[i] = []string{
			regions[j%len(regions)],
			models[j%len(models)],
			fmt.Sprintf("%d.5", (j*37)%100),
			fmt.Sprintf("%d", (j*53)%80),
			classes[j%len(classes)],
		}
	}
	return rows
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

func toStats(h *obsv.Histogram) stageStats {
	snap := h.Snapshot()
	st := stageStats{Count: snap.Count, SumSec: snap.Sum}
	st.TotalMsec = snap.Sum * float64(time.Second/time.Millisecond)
	if snap.Count > 0 {
		st.MeanMs = st.TotalMsec / float64(snap.Count)
	}
	return st
}
