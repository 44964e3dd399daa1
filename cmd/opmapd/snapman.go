package main

// Durable session snapshots for the daemon. A snapman owns one
// -snapshot-dir: at startup it warm-starts each dataset from its
// snapshot when the file is present, intact, matches the source
// content hash and was taken in the daemon's engine mode and cube
// budget (the snapshot carries the rows, so neither mode reads the
// source), and falls back to a cold rebuild otherwise. While serving,
// an optional background checkpointer rewrites each dataset's snapshot
// atomically whenever its engine has changed since the last save, so a
// later restart warm-starts from the freshest working set. Every load, fallback and checkpoint is
// counted in the obsv default registry, which opmapd's /metrics
// endpoint scrapes.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"opmap"
	"opmap/internal/atomicfile"
	"opmap/internal/engine"
	"opmap/internal/obsv"
	"opmap/internal/snapshot"
)

// Snapshot metric families. Fallback reasons are bounded label values
// (missing, stale, corrupt, incompatible) so the series set stays
// fixed.
const (
	metricSnapLoads       = "opmapd_snapshot_loads_total"             // counter: warm starts served from a snapshot
	metricSnapFallbacks   = "opmapd_snapshot_fallbacks_total"         // counter{reason}: cold rebuilds forced at startup
	metricSnapCheckpoints = "opmapd_snapshot_checkpoint_seconds"      // histogram: atomic checkpoint write durations
	metricSnapBytes       = "opmapd_snapshot_bytes_written_total"     // counter: snapshot bytes persisted
	metricSnapErrors      = "opmapd_snapshot_checkpoint_errors_total" // counter: failed checkpoint attempts
)

// fallbackReasons enumerates the metricSnapFallbacks label values so
// the series exist from the first scrape.
var fallbackReasons = []string{"missing", "stale", "corrupt", "incompatible"}

// snapExt is the snapshot file suffix; each dataset gets
// <dir>/<name>.omapsnap.
const snapExt = ".omapsnap"

// snapman manages the snapshot directory for every served dataset.
type snapman struct {
	dir      string
	interval time.Duration
	// ingest, when ingestion is enabled, is notified after each
	// successful checkpoint so WAL segments fully covered by the
	// snapshot can be reclaimed.
	ingest *ingestman

	mu      sync.Mutex
	entries map[string]*snapEntry
	// reasons records why a dataset's warm start fell back, keyed by
	// dataset name, so the tracked status can say more than "cold".
	reasons map[string]string
}

// snapEntry is one tracked dataset: the live session to checkpoint,
// the source identity to stamp into headers, and the serving status
// reported on /api/datasets.
type snapEntry struct {
	sess   *opmap.Session
	hash   string
	status string
	// lastSig is the engine signature at the last successful save;
	// checkpoints are skipped while the signature is unchanged, so an
	// idle daemon does not rewrite identical snapshots every interval.
	lastSig string
}

// newSnapman prepares the snapshot directory (creating it, sweeping
// staging files orphaned by a crash) and pre-registers the snapshot
// metric series at zero.
func newSnapman(dir string, interval time.Duration) (*snapman, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot dir: %w", err)
	}
	if n, err := atomicfile.CleanupTemps(dir); err != nil {
		return nil, fmt.Errorf("snapshot dir: sweeping staging files: %w", err)
	} else if n > 0 {
		log.Printf("snapshot dir: removed %d staging file(s) orphaned by a crash", n)
	}
	reg := obsv.Default()
	reg.Counter(metricSnapLoads)
	for _, reason := range fallbackReasons {
		reg.Counter(metricSnapFallbacks, "reason", reason)
	}
	reg.Histogram(metricSnapCheckpoints, nil)
	reg.Counter(metricSnapBytes)
	reg.Counter(metricSnapErrors)
	return &snapman{
		dir:      dir,
		interval: interval,
		entries:  map[string]*snapEntry{},
		reasons:  map[string]string{},
	}, nil
}

// path maps a dataset name to its snapshot file. Names with path
// separators are rejected at flag validation (validName), so the join
// cannot escape the snapshot directory.
func (m *snapman) path(name string) string {
	return filepath.Join(m.dir, name+snapExt)
}

// validName reports whether a dataset name can serve as a snapshot
// file stem.
func validName(name string) bool {
	return name != "" && !strings.ContainsAny(name, "/\\") && name != "." && name != ".."
}

// load attempts a warm start: peek the header for a cheap staleness
// and compatibility check, then load the full snapshot as a
// ready-to-serve session. A missing, stale or corrupt snapshot, or an
// incompatible one — another format version, engine mode or cube
// budget than the daemon's flags — records a fallback and returns
// false: the caller rebuilds from source.
func (m *snapman) load(name, hash string, lazy bool, cacheBytes int64) (*opmap.Session, bool) {
	if cacheBytes == 0 {
		cacheBytes = engine.DefaultCacheBytes
	}
	path := m.path(name)
	info, err := opmap.PeekSnapshotFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		m.fallback(name, "missing", nil)
		return nil, false
	case errors.Is(err, snapshot.ErrVersion):
		m.fallback(name, "incompatible", err)
		return nil, false
	case err != nil:
		m.fallback(name, "corrupt", err)
		return nil, false
	case info.Lazy != lazy || info.CacheBytes != cacheBytes:
		m.fallback(name, "incompatible", fmt.Errorf("snapshot engine (lazy %v, cache %d bytes) differs from the daemon's (lazy %v, cache %d bytes)", info.Lazy, info.CacheBytes, lazy, cacheBytes))
		return nil, false
	case info.SourceHash != hash:
		m.fallback(name, "stale", nil)
		return nil, false
	}
	start := time.Now()
	sess, err := opmap.LoadSnapshotFile(path)
	if err != nil {
		// The header looked fine but the body failed integrity or
		// validation; rebuild rather than refuse to serve.
		m.fallback(name, "corrupt", err)
		return nil, false
	}
	obsv.Default().Counter(metricSnapLoads).Inc()
	m.track(name, hash, "loaded", sess)
	log.Printf("dataset %q: warm start from %s in %v (%d rows, %d cubes resident)",
		name, path, time.Since(start).Round(time.Millisecond), sess.NumRows(), sess.CubeCount())
	return sess, true
}

// trackCold registers a dataset that was rebuilt from source and
// checkpoints it immediately, so the load and build are durable before
// the first request arrives; a lazy engine's cubes follow in the
// periodic checkpoints as it warms.
func (m *snapman) trackCold(name, hash string, sess *opmap.Session) {
	m.track(name, hash, "cold", sess)
	m.mu.Lock()
	e := m.entries[name]
	m.mu.Unlock()
	m.checkpoint(name, e)
}

// track registers (or updates) a dataset entry. Warm entries start
// with the current engine signature so the checkpointer does not
// immediately rewrite the file it just loaded.
func (m *snapman) track(name, hash, status string, sess *opmap.Session) {
	e := &snapEntry{sess: sess, hash: hash, status: status}
	if status == "loaded" {
		e.lastSig = engineSig(sess)
	}
	m.mu.Lock()
	if reason, ok := m.reasons[name]; ok && status == "cold" {
		e.status = "cold (" + reason + ")"
	}
	m.entries[name] = e
	m.mu.Unlock()
}

// fallback records a warm-start failure: a counter tick, a log line,
// and the reason for the dataset's status string.
func (m *snapman) fallback(name, reason string, err error) {
	obsv.Default().Counter(metricSnapFallbacks, "reason", reason).Inc()
	m.mu.Lock()
	m.reasons[name] = reason
	m.mu.Unlock()
	if err != nil {
		log.Printf("dataset %q: snapshot fallback (%s): %v; rebuilding from source", name, reason, err)
		return
	}
	log.Printf("dataset %q: snapshot fallback (%s); rebuilding from source", name, reason)
}

// status reports a dataset's snapshot state for /api/datasets; empty
// means untracked.
func (m *snapman) status(name string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[name]
	if e == nil {
		return ""
	}
	return e.status
}

// checkpoint writes one dataset's snapshot atomically, skipping the
// write when the engine is unchanged since the last save.
func (m *snapman) checkpoint(name string, e *snapEntry) {
	if e == nil {
		return
	}
	sig := engineSig(e.sess)
	m.mu.Lock()
	skip := sig == e.lastSig
	m.mu.Unlock()
	if skip {
		return
	}
	path := m.path(name)
	start := time.Now()
	// Captured before the save: the snapshot's recorded sequence is at
	// least this (appends only advance it), so truncating the WAL
	// through it can never drop a record the snapshot doesn't cover.
	walSeq := e.sess.IngestSeq()
	if err := e.sess.SaveSnapshotFile(path, opmap.SnapshotOptions{SourceHash: e.hash}); err != nil {
		obsv.Default().Counter(metricSnapErrors).Inc()
		log.Printf("dataset %q: checkpoint to %s failed: %v", name, path, err)
		return
	}
	dur := time.Since(start)
	obsv.Default().Histogram(metricSnapCheckpoints, nil).Observe(dur.Seconds())
	if fi, err := os.Stat(path); err == nil {
		obsv.Default().Counter(metricSnapBytes).Add(fi.Size())
	}
	m.mu.Lock()
	e.lastSig = sig
	m.mu.Unlock()
	log.Printf("dataset %q: checkpointed to %s in %v", name, path, dur.Round(time.Millisecond))
	if m.ingest != nil {
		m.ingest.truncated(name, walSeq)
	}
}

// checkpointAll checkpoints every tracked dataset in name order.
func (m *snapman) checkpointAll() {
	m.mu.Lock()
	names := make([]string, 0, len(m.entries))
	for name := range m.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := make([]*snapEntry, len(names))
	for i, name := range names {
		entries[i] = m.entries[name]
	}
	m.mu.Unlock()
	for i, name := range names {
		m.checkpoint(name, entries[i])
	}
}

// run is the background checkpointer: every interval it persists the
// datasets whose engines changed, and on shutdown it takes one final
// checkpoint so a drained daemon leaves its freshest working set
// behind. Caller gates on interval > 0.
func (m *snapman) run(ctx context.Context) {
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			m.checkpointAll()
			return
		case <-t.C:
			m.checkpointAll()
		}
	}
}

// engineSig summarizes the engine state that a snapshot would capture;
// two equal signatures mean a checkpoint would write the same cube
// set. Build counters are included so a lazy eviction-then-rebuild
// cycle (same count, different residents) still triggers a save; the
// row count and ingest sequence so streamed appends (which mutate
// cubes in place without builds) do too.
func engineSig(s *opmap.Session) string {
	st := s.EngineStats()
	return fmt.Sprintf("%d|%d|%d|%d|%d", s.CubeCount(), st.OneDBuilds, st.TwoDBuilds, s.NumRows(), s.IngestSeq())
}
