package opmap

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/snapshot"
)

// snapshotPair builds a fresh eager session and a second session
// restored from its snapshot. The pair backs the warm-start oracle
// tests: every cube-served query must be identical across the two.
func snapshotPair(t testing.TB) (fresh, warm *Session, gt CallLogTruth) {
	t.Helper()
	cfg := CallLogConfig{Seed: 41, Records: 20000, NumPhones: 5, NoiseAttrs: 3}
	fresh, gt, err := GenerateCallLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Discretize(DiscretizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.SaveSnapshot(&buf, SnapshotOptions{SourceHash: HashSourceString("callog-41")}); err != nil {
		t.Fatal(err)
	}
	warm, err = LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fresh, warm, gt
}

func TestSnapshotCompareMatchesFresh(t *testing.T) {
	fresh, warm, gt := snapshotPair(t)
	want, err := fresh.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Cf1 != got.Cf1 || want.Cf2 != got.Cf2 || want.Ratio != got.Ratio {
		t.Errorf("confidences differ: fresh (%g,%g,%g), snapshot (%g,%g,%g)",
			want.Cf1, want.Cf2, want.Ratio, got.Cf1, got.Cf2, got.Ratio)
	}
	if !reflect.DeepEqual(want.Ranked(), got.Ranked()) {
		t.Error("snapshot-loaded ranking differs from fresh build")
	}
	if !reflect.DeepEqual(want.PropertyAttributes(), got.PropertyAttributes()) {
		t.Error("snapshot-loaded property attributes differ from fresh build")
	}
}

func TestSnapshotSweepAndImpressionsMatchFresh(t *testing.T) {
	fresh, warm, gt := snapshotPair(t)
	ws, err := fresh.Sweep(gt.PhoneAttr, gt.DropClass, 3)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := warm.Sweep(gt.PhoneAttr, gt.DropClass, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws, gs) {
		t.Error("snapshot-loaded sweep differs from fresh build")
	}
	wi, err := fresh.Impressions(ImpressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gi, err := warm.Impressions(ImpressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wi, gi) {
		t.Error("snapshot-loaded impressions differ from fresh build")
	}
}

func TestSnapshotSessionMetadata(t *testing.T) {
	fresh, warm, _ := snapshotPair(t)
	if f, w := fresh.NumRows(), warm.NumRows(); f != w {
		t.Errorf("NumRows: fresh %d, snapshot %d", f, w)
	}
	if f, w := fresh.Attributes(), warm.Attributes(); !reflect.DeepEqual(f, w) {
		t.Errorf("Attributes: fresh %v, snapshot %v", f, w)
	}
	if f, w := fresh.ClassAttribute(), warm.ClassAttribute(); f != w {
		t.Errorf("ClassAttribute: fresh %q, snapshot %q", f, w)
	}
	if f, w := fresh.Classes(), warm.Classes(); !reflect.DeepEqual(f, w) {
		t.Errorf("Classes: fresh %v, snapshot %v", f, w)
	}
	if f, w := fresh.CubeCount(), warm.CubeCount(); f != w {
		t.Errorf("CubeCount: fresh %d, snapshot %d", f, w)
	}
	if f, w := fresh.RuleSpaceSize(), warm.RuleSpaceSize(); f != w {
		t.Errorf("RuleSpaceSize: fresh %d, snapshot %d", f, w)
	}
}

func TestSnapshotFileRoundTripAndPeek(t *testing.T) {
	sess, gt, err := GenerateCallLog(CallLogConfig{Seed: 9, Records: 5000, NumPhones: 4, NoiseAttrs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Discretize(DiscretizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sess.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/calls.omapsnap"
	hash := HashSourceString("calls-seed-9")
	if err := sess.SaveSnapshotFile(path, SnapshotOptions{SourceHash: hash}); err != nil {
		t.Fatal(err)
	}
	info, err := PeekSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.SourceHash != hash {
		t.Errorf("peeked hash %q, want %q", info.SourceHash, hash)
	}
	if info.Lazy {
		t.Error("eager snapshot peeked as lazy")
	}
	if info.Rows != sess.NumRows() {
		t.Errorf("peeked rows %d, want %d", info.Rows, sess.NumRows())
	}
	warm, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{}); err != nil {
		t.Fatalf("compare on file-loaded session: %v", err)
	}
}

// TestSnapshotSeedLazy pins the lazy warm-start path: a lazy session's
// resident cubes survive the snapshot and seed the restored lazy
// session, whose queries then run with zero additional builds.
func TestSnapshotSeedLazy(t *testing.T) {
	cfg := CallLogConfig{Seed: 23, Records: 10000, NumPhones: 4, NoiseAttrs: 2}
	first, gt, err := GenerateCallLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Discretize(DiscretizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := first.BuildCubesOptions(context.Background(), BuildOptions{Lazy: true, CubeCacheBytes: 1 << 22}); err != nil {
		t.Fatal(err)
	}
	// A sweep caches the phone attribute's pair cubes; a pairwise
	// compare reads resident cubes but never caches any.
	if _, err := first.Sweep(gt.PhoneAttr, gt.DropClass, 0); err != nil {
		t.Fatal(err)
	}
	want, err := first.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := first.CubeCount(); n < 2 {
		t.Fatalf("lazy session has %d resident cubes after a sweep, want its pair cubes too", n)
	}
	path := t.TempDir() + "/lazy.omapsnap"
	if err := first.SaveSnapshotFile(path, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	if info, err := PeekSnapshotFile(path); err != nil || !info.Lazy || info.CacheBytes != 1<<22 {
		t.Fatalf("lazy snapshot peek: info=%+v err=%v", info, err)
	}

	second, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := second.CubeCount(); n != first.CubeCount() {
		t.Errorf("restored %d cubes, snapshot held %d", n, first.CubeCount())
	}
	st := second.EngineStats()
	if !st.Lazy {
		t.Error("a lazy snapshot restored as an eager session")
	}
	scans := obsv.Default().Counter(rulecube.CubeScansCounterName)
	s0 := scans.Value()
	got, err := second.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s0; d != 0 {
		t.Errorf("restored session's compare performed %d scans, want 0", d)
	}
	if !reflect.DeepEqual(want.Ranked(), got.Ranked()) {
		t.Error("restored session's ranking differs from the original")
	}
	st = second.EngineStats()
	if st.OneDBuilds != 0 || st.TwoDBuilds != 0 {
		t.Errorf("restored session built cubes for a snapshot-covered query: 1-D %d, 2-D %d", st.OneDBuilds, st.TwoDBuilds)
	}
}

// TestSnapshotSeedRejectsMismatch pins the guard below the checksum: a
// snapshot whose cubes disagree with its rows must not load.
func TestSnapshotSeedRejectsMismatch(t *testing.T) {
	session := func(phones int) *Session {
		s, gt, err := GenerateCallLog(CallLogConfig{Seed: 5, Records: 8000, NumPhones: phones, NoiseAttrs: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Discretize(DiscretizeOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := s.BuildCubesOptions(context.Background(), BuildOptions{Lazy: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Sweep(gt.PhoneAttr, gt.DropClass, 0); err != nil {
			t.Fatal(err)
		}
		return s
	}
	big, small := session(6), session(3)
	snap, err := small.buildSnapshot(SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := big.buildSnapshot(SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap.Store = other.Store
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&buf); err == nil {
		t.Error("a snapshot whose cubes count other rows loaded")
	}
}

// TestSnapshotRequiresEngine pins the precondition error.
func TestSnapshotRequiresEngine(t *testing.T) {
	sess, _, err := GenerateCallLog(CallLogConfig{Seed: 1, Records: 500, NumPhones: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.SaveSnapshot(&buf, SnapshotOptions{}); err == nil {
		t.Error("SaveSnapshot before BuildCubes succeeded")
	}
}
