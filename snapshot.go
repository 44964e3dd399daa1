package opmap

import (
	"io"
	"time"

	"opmap/internal/engine"
	"opmap/internal/rulecube"
	"opmap/internal/snapshot"
)

// Session snapshots: the durable form of a served session. A snapshot
// carries the session's rows, cuts and cubes — every cube of an eager
// session, the resident ones of a lazy session — so LoadSnapshot
// rebuilds the same session in either mode without the source data:
// an eager one with zero cube builds, a lazy one with its working set
// warm. Either way the write is atomic, so a crash mid-checkpoint never
// clobbers the previous good snapshot.

// SnapshotOptions configures SaveSnapshot.
type SnapshotOptions struct {
	// SourceHash records the content identity of the session's source
	// data (HashSourceFile / HashSourceString) so loaders can detect a
	// snapshot gone stale against edited source. Empty leaves staleness
	// undetectable — loader policy decides whether to trust it.
	SourceHash string
}

// SnapshotInfo summarizes a snapshot file's header (PeekSnapshotFile):
// enough to decide whether to load it. The header is read without
// verifying the file's checksum, so treat the fields as advisory until
// LoadSnapshotFile succeeds.
type SnapshotInfo struct {
	Version    int
	SourceHash string
	Created    time.Time
	// Rows is the number of rows the snapshot holds.
	Rows int
	// Lazy reports whether the snapshotted session ran the lazy engine;
	// LoadSnapshot restores it in the same mode.
	Lazy bool
	// CacheBytes is the engine's byte budget for unpinned cubes
	// (negative means unlimited).
	CacheBytes int64
	// IngestSeq is the WAL sequence of the last append batch applied
	// before the snapshot; WAL replay resumes at IngestSeq+1.
	IngestSeq uint64
}

// SaveSnapshot persists the session — schema, dictionaries, rows,
// discretization cuts, cubes and engine configuration — to w. Eager
// sessions write every cube; lazy sessions write their resident 1-D
// and pair cubes. A BuildCubes variant must have run.
func (s *Session) SaveSnapshot(w io.Writer, opts SnapshotOptions) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap, err := s.buildSnapshot(opts)
	if err != nil {
		return err
	}
	return snapshot.Write(w, snap)
}

// SaveSnapshotFile is SaveSnapshot to a file path, written atomically
// (temp file, fsync, rename): a crash mid-write leaves any previous
// snapshot at path intact.
func (s *Session) SaveSnapshotFile(path string, opts SnapshotOptions) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap, err := s.buildSnapshot(opts)
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, snap)
}

// buildSnapshot assembles the in-memory snapshot for the session's
// current engine. Callers hold at least the read lock.
func (s *Session) buildSnapshot(opts SnapshotOptions) (*snapshot.Snapshot, error) {
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	snap := &snapshot.Snapshot{
		SourceHash:  opts.SourceHash,
		CreatedUnix: time.Now().Unix(),
		Mode:        snapshot.ModeEager,
		CacheBytes:  src.Budget(),
		IngestSeq:   s.ingestSeq,
		Cuts:        s.cuts,
		Raw:         s.raw,
		Attrs:       src.Attrs(),
	}
	if !src.Eager() {
		snap.Mode = snapshot.ModeLazy
	}
	// Resident cubes come in slot order; drill-down cubes follow them
	// and are not written.
	var cubes []*rulecube.Cube
	for _, c := range src.ResidentCubes() {
		if c.NumDims() <= 2 {
			cubes = append(cubes, c)
		}
	}
	snap.SetCubes(cubes)
	return snap, nil
}

// LoadSnapshot rebuilds a ready-to-serve Session from a snapshot
// stream: the session it was taken from, rows and all, in the same
// engine mode and cube budget. An eager snapshot pins its cubes, so
// the session serves with zero cube builds; a lazy one seeds its
// resident cubes into a fresh lazy engine.
func LoadSnapshot(r io.Reader) (*Session, error) {
	snap, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return sessionFromSnapshot(snap)
}

// LoadSnapshotFile is LoadSnapshot from a file path.
func LoadSnapshotFile(path string) (*Session, error) {
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return sessionFromSnapshot(snap)
}

func sessionFromSnapshot(snap *snapshot.Snapshot) (*Session, error) {
	ds := snap.Working
	src, err := engine.NewLazy(ds, engine.LazyOptions{Attrs: snap.Attrs, CacheBytes: snap.CacheBytes})
	if err != nil {
		return nil, err
	}
	if snap.Mode == snapshot.ModeLazy {
		_, err = src.SeedCubes(snap.Cubes())
	} else {
		err = src.Pin(snap.Cubes())
	}
	if err != nil {
		return nil, err
	}
	return &Session{
		raw:       snap.Raw,
		ds:        ds,
		cuts:      snap.Cuts,
		ingestSeq: snap.IngestSeq,
		src:       src,
		results:   engine.NewResultCache(0),
	}, nil
}

// PeekSnapshotFile reads a snapshot file's header only — source hash,
// creation time, row count, engine mode — for a cheap staleness check
// before committing to a full load.
func PeekSnapshotFile(path string) (*SnapshotInfo, error) {
	h, err := snapshot.PeekFile(path)
	if err != nil {
		return nil, err
	}
	return &SnapshotInfo{
		Version:    h.Version,
		SourceHash: h.SourceHash,
		Created:    time.Unix(h.CreatedUnix, 0),
		Rows:       h.Rows,
		Lazy:       h.Mode == snapshot.ModeLazy,
		CacheBytes: h.CacheBytes,
		IngestSeq:  h.IngestSeq,
	}, nil
}

// HashSourceFile returns the content hash of a source data file, the
// value to record in SnapshotOptions.SourceHash and compare against
// SnapshotInfo.SourceHash on the next start.
func HashSourceFile(path string) (string, error) {
	return snapshot.HashFile(path)
}

// HashSourceString is HashSourceFile for generated datasets: hash the
// configuration string that determines the data instead of a file.
func HashSourceString(cfg string) string {
	return snapshot.HashBytes([]byte(cfg))
}
