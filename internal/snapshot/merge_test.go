package snapshot_test

// Merging shard snapshot files. The file-level merge lives in the root
// package, since it loads each shard as a session and folds it in with
// Session.MergeFrom; these tests drive it over shard snapshots built
// directly in this package's format.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"opmap"
	"opmap/internal/dataset"
	"opmap/internal/snapshot"
)

// shardSnapshot builds an eager snapshot over "phone location temp
// dropped" rows with fresh dictionaries, so shards built from different
// row sets have genuinely different code assignments. temp is
// continuous, binned at the shared cuts 1.5 and 2.5.
func shardSnapshot(t testing.TB, hash string, rows ...string) *snapshot.Snapshot {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "phone", Kind: dataset.Categorical},
			{Name: "location", Kind: dataset.Categorical},
			{Name: "temp", Kind: dataset.Continuous},
			{Name: "dropped", Kind: dataset.Categorical},
		},
		ClassIndex: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := b.AddRow(strings.Fields(r)); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, ds, map[string][]float64{"temp": {1.5, 2.5}})
	snap.SourceHash = snapshot.HashBytes([]byte(hash))
	return snap
}

// Shard rows chosen so shard2 opens with labels shard1 never saw:
// the merge has to remap, not just sum.
var (
	mergeShard1Rows = []string{
		"p1 north 1 yes", "p1 south 2 no", "p2 north 3 yes", "p2 south ? no",
	}
	mergeShard2Rows = []string{
		"p3 east 1 no", "p3 north 2 maybe", "p1 east 3 yes", "p4 south 1 no",
	}
)

// writeShards writes each snapshot to its own file under dir, in order.
func writeShards(t testing.TB, dir string, snaps ...*snapshot.Snapshot) []string {
	t.Helper()
	paths := make([]string, len(snaps))
	for i, sn := range snaps {
		paths[i] = filepath.Join(dir, "shard"+string(rune('1'+i))+".omapsnap")
		if err := snapshot.WriteFile(paths[i], sn); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestMergeMatchesSinglePass: merging two shard snapshot files (with
// non-identical dictionaries) must write exactly the rows and cubes a
// single pass over the concatenated rows would have, with the header
// reconciled: rows summed, the latest ingest sequence and created
// time, and a source hash over the ordered shard hashes.
func TestMergeMatchesSinglePass(t *testing.T) {
	sn1 := shardSnapshot(t, "shard-1", mergeShard1Rows...)
	sn1.IngestSeq = 7
	sn2 := shardSnapshot(t, "shard-2", mergeShard2Rows...)
	sn2.IngestSeq = 12
	sn2.CreatedUnix = 1754009999
	dir := t.TempDir()
	dst := filepath.Join(dir, "merged.omapsnap")
	if err := opmap.MergeSnapshotFiles(dst, writeShards(t, dir, sn1, sn2)...); err != nil {
		t.Fatal(err)
	}
	merged, err := snapshot.ReadFile(dst)
	if err != nil {
		t.Fatalf("merged snapshot does not read back: %v", err)
	}
	if merged.IngestSeq != 12 {
		t.Errorf("IngestSeq = %d, want max 12", merged.IngestSeq)
	}
	if merged.CreatedUnix != 1754009999 {
		t.Errorf("CreatedUnix = %d, want max 1754009999", merged.CreatedUnix)
	}
	if merged.Mode != snapshot.ModeEager {
		t.Errorf("Mode = %v, want eager", merged.Mode)
	}
	wantHash := snapshot.HashBytes([]byte(sn1.SourceHash + "\n" + sn2.SourceHash))
	if merged.SourceHash != wantHash {
		t.Errorf("SourceHash = %q, want hash over ordered shard hashes", merged.SourceHash)
	}

	// The oracle: a single pass over the concatenated rows.
	all := append(append([]string(nil), mergeShard1Rows...), mergeShard2Rows...)
	single := shardSnapshot(t, "single", all...)
	if !reflect.DeepEqual(rowsOf(merged.Raw), rowsOf(single.Raw)) {
		t.Error("merged rows differ from the single pass's")
	}
	assertSameCubes(t, merged.Cubes(), single.Cubes())
}

func TestMergeSingleShard(t *testing.T) {
	sn := shardSnapshot(t, "solo", mergeShard1Rows...)
	dir := t.TempDir()
	dst := filepath.Join(dir, "merged.omapsnap")
	if err := opmap.MergeSnapshotFiles(dst, writeShards(t, dir, sn)...); err != nil {
		t.Fatal(err)
	}
	merged, err := snapshot.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsOf(merged.Raw), rowsOf(sn.Raw)) {
		t.Error("single-shard merge should pass the shard's rows through")
	}
	if merged.SourceHash != snapshot.HashBytes([]byte(sn.SourceHash)) {
		t.Error("single-shard source hash should still derive from the shard hash")
	}
}

func TestMergeRejectsLazy(t *testing.T) {
	sn1 := shardSnapshot(t, "a", mergeShard1Rows...)
	sn2 := shardSnapshot(t, "b", mergeShard2Rows...)
	sn2.Mode = snapshot.ModeLazy
	dir := t.TempDir()
	paths := writeShards(t, dir, sn1, sn2)
	err := opmap.MergeSnapshotFiles(filepath.Join(dir, "out.omapsnap"), paths...)
	if err == nil || !strings.Contains(err.Error(), paths[1]) || !strings.Contains(err.Error(), "lazy") {
		t.Fatalf("err = %v, want lazy rejection naming %s", err, paths[1])
	}
}

func TestMergeCutsMismatchNamesAttribute(t *testing.T) {
	sn1 := shardSnapshot(t, "a", mergeShard1Rows...)
	sn2 := shardSnapshot(t, "b", mergeShard2Rows...)
	sn2.Cuts = map[string][]float64{"temp": {1.5, 9.9}}
	dir := t.TempDir()
	err := opmap.MergeSnapshotFiles(filepath.Join(dir, "out.omapsnap"), writeShards(t, dir, sn1, sn2)...)
	if err == nil || !strings.Contains(err.Error(), `"temp"`) {
		t.Fatalf("err = %v, want cut mismatch naming \"temp\"", err)
	}
}

// TestMergeNilShard: a shard that is not there, or no shard at all, is
// an error.
func TestMergeNilShard(t *testing.T) {
	dir := t.TempDir()
	paths := writeShards(t, dir, shardSnapshot(t, "a", mergeShard1Rows...))
	missing := filepath.Join(dir, "missing.omapsnap")
	dst := filepath.Join(dir, "out.omapsnap")
	if err := opmap.MergeSnapshotFiles(dst, paths[0], missing); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("err = %v, want missing shard error naming %s", err, missing)
	}
	if err := opmap.MergeSnapshotFiles(dst); err == nil {
		t.Fatal("zero shards should error")
	}
}

func TestMergeFiles(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "merged.omapsnap")
	paths := writeShards(t, dir, shardSnapshot(t, "a", mergeShard1Rows...), shardSnapshot(t, "b", mergeShard2Rows...))
	if err := opmap.MergeSnapshotFiles(dst, paths...); err != nil {
		t.Fatal(err)
	}
	info, err := opmap.PeekSnapshotFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(mergeShard1Rows) + len(mergeShard2Rows); info.Rows != want {
		t.Errorf("merged file Rows = %d, want %d", info.Rows, want)
	}
}

func TestMergeFilesErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.omapsnap")
	if err := snapshot.WriteFile(good, shardSnapshot(t, "a", mergeShard1Rows...)); err != nil {
		t.Fatal(err)
	}

	t.Run("corrupt shard names path", func(t *testing.T) {
		bad := filepath.Join(dir, "bad.omapsnap")
		raw := encode(t, shardSnapshot(t, "b", mergeShard2Rows...))
		raw[len(raw)/2] ^= 0x20
		if err := os.WriteFile(bad, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, "out1.omapsnap")
		err := opmap.MergeSnapshotFiles(dst, good, bad)
		if err == nil || !strings.Contains(err.Error(), bad) {
			t.Fatalf("err = %v, want corrupt-shard error naming %s", err, bad)
		}
		if _, statErr := os.Stat(dst); !os.IsNotExist(statErr) {
			t.Error("dst written despite merge error")
		}
	})

	t.Run("dst preserved on error", func(t *testing.T) {
		dst := filepath.Join(dir, "out2.omapsnap")
		if err := os.WriteFile(dst, []byte("previous"), 0o600); err != nil {
			t.Fatal(err)
		}
		missing := filepath.Join(dir, "missing.omapsnap")
		if err := opmap.MergeSnapshotFiles(dst, good, missing); err == nil {
			t.Fatal("expected error for missing shard")
		}
		content, err := os.ReadFile(dst)
		if err != nil || string(content) != "previous" {
			t.Errorf("dst content = %q, %v; want previous content intact", content, err)
		}
	})

	t.Run("schema mismatch names attribute", func(t *testing.T) {
		b, err := dataset.NewBuilder(dataset.Schema{
			Attrs: []dataset.Attribute{
				{Name: "phone", Kind: dataset.Categorical},
				{Name: "region", Kind: dataset.Categorical},
				{Name: "temp", Kind: dataset.Continuous},
				{Name: "dropped", Kind: dataset.Categorical},
			},
			ClassIndex: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddRow([]string{"p1", "west", "1", "yes"}); err != nil {
			t.Fatal(err)
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		other := filepath.Join(dir, "other.omapsnap")
		if err := snapshot.WriteFile(other, snapshotOf(t, ds, map[string][]float64{"temp": {1.5, 2.5}})); err != nil {
			t.Fatal(err)
		}
		err = opmap.MergeSnapshotFiles(filepath.Join(dir, "out3.omapsnap"), good, other)
		if err == nil || !strings.Contains(err.Error(), `"location"`) {
			t.Fatalf("err = %v, want schema mismatch naming \"location\"", err)
		}
	})
}

// FuzzMergeSnapshots feeds arbitrary byte pairs to the file-level merge:
// corrupt, truncated, or incompatible shard inputs must error (naming
// the offending shard), never panic — and valid pairs must produce a
// snapshot that reads back.
func FuzzMergeSnapshots(f *testing.F) {
	valid1 := encode(f, shardSnapshot(f, "fuzz-1", mergeShard1Rows...))
	valid2 := encode(f, shardSnapshot(f, "fuzz-2", mergeShard2Rows...))
	f.Add(append([]byte(nil), valid1...), append([]byte(nil), valid2...))
	f.Add(valid1[:len(valid1)/2], append([]byte(nil), valid2...))
	f.Add([]byte{}, []byte(snapshot.Magic))
	mutated := append([]byte(nil), valid1...)
	mutated[len(mutated)/3] ^= 0x40
	f.Add(mutated, append([]byte(nil), valid2...))
	// A dict-mismatched pair: different schema entirely.
	other := encode(f, func() *snapshot.Snapshot {
		b, err := dataset.NewBuilder(dataset.Schema{
			Attrs:      []dataset.Attribute{{Name: "x", Kind: dataset.Categorical}},
			ClassIndex: 0,
		})
		if err != nil {
			f.Fatal(err)
		}
		ds, err := b.Build()
		if err != nil {
			f.Fatal(err)
		}
		return snapshotOf(f, ds, nil)
	}())
	f.Add(append([]byte(nil), valid1...), other)

	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		p1 := filepath.Join(dir, "a.omapsnap")
		p2 := filepath.Join(dir, "b.omapsnap")
		dst := filepath.Join(dir, "out.omapsnap")
		if err := os.WriteFile(p1, a, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p2, b, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := opmap.MergeSnapshotFiles(dst, p1, p2); err != nil {
			// Errors are expected for hostile inputs; the merged output
			// must simply not exist.
			if _, statErr := os.Stat(dst); !os.IsNotExist(statErr) {
				t.Fatal("dst written despite merge error")
			}
			return
		}
		// A successful merge must read back cleanly.
		if _, err := snapshot.ReadFile(dst); err != nil {
			t.Fatalf("merged output does not read back: %v", err)
		}
	})
}
