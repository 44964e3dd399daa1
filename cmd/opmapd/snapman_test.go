package main

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
	"time"

	"opmap"
	"opmap/internal/obsv"
	"opmap/internal/snapshot"
)

// TestSnapshotFallbackIncompatible: a snapshot taken in another engine
// mode or cube budget than the daemon's flags, or written before the
// rows block, is an incompatible fallback, not a warm start; a matching
// one loads.
func TestSnapshotFallbackIncompatible(t *testing.T) {
	m, err := newSnapman(t.TempDir(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sess := ingestTestSession(t)
	path := m.path("d")
	if err := sess.SaveSnapshotFile(path, opmap.SnapshotOptions{SourceHash: "h"}); err != nil {
		t.Fatal(err)
	}
	incompatible := obsv.Default().Counter(metricSnapFallbacks, "reason", "incompatible")
	before := incompatible.Value()
	if _, ok := m.load("d", "h", true, 0); ok {
		t.Error("a lazy daemon warm-started from an eager snapshot")
	}
	if _, ok := m.load("d", "h", false, 1<<20); ok {
		t.Error("a daemon warm-started from a snapshot taken at another cube budget")
	}
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []byte{2, 3} {
		old := append([]byte(nil), current...)
		old[len(snapshot.Magic)] = ver
		binary.LittleEndian.PutUint32(old[len(old)-4:], crc32.ChecksumIEEE(old[:len(old)-4]))
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.load("d", "h", false, 0); ok {
			t.Errorf("a daemon warm-started from a version-%d snapshot", ver)
		}
	}
	if got := incompatible.Value() - before; got != 4 {
		t.Errorf("incompatible fallbacks = %d, want 4", got)
	}

	if err := os.WriteFile(path, current, 0o644); err != nil {
		t.Fatal(err)
	}
	warm, ok := m.load("d", "h", false, 0)
	if !ok {
		t.Fatal("a matching snapshot did not warm-start")
	}
	if warm.NumRows() != sess.NumRows() || m.status("d") != "loaded" {
		t.Errorf("warm start: %d rows, status %q; want %d rows, loaded", warm.NumRows(), m.status("d"), sess.NumRows())
	}
}
