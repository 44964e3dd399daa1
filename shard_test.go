package opmap

import (
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"opmap/internal/testutil"
)

// shardWorkload generates a discretized call-log session and exports
// its working (binned, fully categorical) rows as CSV shard files:
// one file with every row, plus n contiguous chunks. Contiguous
// splitting matters — merging shards in order must reproduce the
// single pass over the concatenated rows, dictionaries included.
func shardWorkload(t testing.TB, n int) (all string, shards []string, load LoadOptions, gt CallLogTruth) {
	t.Helper()
	s, gt, err := GenerateCallLog(CallLogConfig{Seed: 43, Records: 2400, NumPhones: 4, NoiseAttrs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Discretize(DiscretizeOptions{}); err != nil {
		t.Fatal(err)
	}
	ds := s.ds
	header := make([]string, ds.NumAttrs())
	for i := range header {
		header[i] = ds.Attr(i).Name
	}
	// Force every attribute categorical so no shard can kind-sniff a
	// column differently from its siblings (see ShardOptions.Load).
	load = LoadOptions{Class: ds.Attr(ds.ClassIndex()).Name, Categorical: header}

	dir := t.TempDir()
	writeRows := func(name string, lo, hi int) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := csv.NewWriter(f)
		if err := w.Write(header); err != nil {
			t.Fatal(err)
		}
		for r := lo; r < hi; r++ {
			if err := w.Write(ds.Row(r)); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rows := ds.NumRows()
	all = writeRows("all.csv", 0, rows)
	chunk := (rows + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		shards = append(shards, writeRows("shard"+string(rune('0'+i))+".csv", lo, hi))
	}
	return all, shards, load, gt
}

// singleSession loads the unsharded CSV and builds cubes: the ground
// truth every sharded result must match exactly.
func singleSession(t testing.TB, all string, load LoadOptions) *Session {
	t.Helper()
	s, err := LoadCSVFile(all, load)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	return s
}

// assertSameQueries requires the cube-served query surface of got to be
// identical to want: comparison, sweep, and impressions, DeepEqual.
func assertSameQueries(t *testing.T, want, got *Session, gt CallLogTruth) {
	t.Helper()
	wc, err := want.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gc, err := got.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wc, gc) {
		t.Error("sharded comparison differs from single-pass comparison")
	}
	ws, err := want.Sweep(gt.PhoneAttr, gt.DropClass, 3)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := got.Sweep(gt.PhoneAttr, gt.DropClass, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws, gs) {
		t.Error("sharded sweep differs from single-pass sweep")
	}
	wi, err := want.Impressions(ImpressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gi, err := got.Impressions(ImpressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wi, gi) {
		t.Error("sharded impressions differ from single-pass impressions")
	}
}

// assertSameCubes requires got's working dataset and resident cubes to
// DeepEqual want's, cube by cube: rows, dictionaries, cube layouts and
// counts all bit-identical.
func assertSameCubes(t *testing.T, got, want *Session) {
	t.Helper()
	if !reflect.DeepEqual(got.ds, want.ds) {
		t.Fatal("working dataset differs from the single-pass one")
	}
	g, w := got.src.ResidentCubes(), want.src.ResidentCubes()
	if len(g) != len(w) {
		t.Fatalf("%d resident cubes, single pass has %d", len(g), len(w))
	}
	for i := range w {
		if !reflect.DeepEqual(g[i], w[i]) {
			t.Fatalf("cube %v differs from the single-pass cube", w[i].AttrIndices())
		}
	}
}

// TestBuildShardedMatchesSinglePass is the session-level oracle: at 1,
// 2, and 8 shards the sharded build must hold a store DeepEqual to the
// single-pass store — rows, dictionaries, cube layouts, and counts all
// bit-identical — and answer every query identically.
func TestBuildShardedMatchesSinglePass(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	for _, n := range []int{1, 2, 8} {
		t.Run(string(rune('0'+n))+" shards", func(t *testing.T) {
			all, shards, load, gt := shardWorkload(t, n)
			want := singleSession(t, all, load)
			got, err := BuildSharded(shards, ShardOptions{Load: load})
			if err != nil {
				t.Fatal(err)
			}
			assertSameCubes(t, got, want)
			if got.NumRows() != want.NumRows() {
				t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
			}
			assertSameQueries(t, want, got, gt)
		})
	}
}

// TestBuildShardedZeroRowShard: a header-only shard mid-sequence must
// be a no-op, not an error.
func TestBuildShardedZeroRowShard(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	all, shards, load, gt := shardWorkload(t, 2)
	empty := filepath.Join(t.TempDir(), "empty.csv")
	header, err := os.ReadFile(all)
	if err != nil {
		t.Fatal(err)
	}
	head := string(header[:strings.IndexByte(string(header), '\n')+1])
	if err := os.WriteFile(empty, []byte(head), 0o600); err != nil {
		t.Fatal(err)
	}
	want := singleSession(t, all, load)
	got, err := BuildSharded([]string{shards[0], empty, shards[1]}, ShardOptions{Load: load})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCubes(t, got, want)
	assertSameQueries(t, want, got, gt)
}

// TestBuildShardedDisjointDictionaries: shards whose label sets barely
// overlap (shard 2 opens with values shard 1 never saw) must still
// merge to the single-pass store — the dictionary-union remap at work.
func TestBuildShardedDisjointDictionaries(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	header := "model,band,outcome\n"
	rows1 := "m1,b1,ok\nm1,b2,drop\nm2,b1,ok\nm2,b2,ok\n?,b1,drop\n"
	rows2 := "m3,b9,drop\nm3,b1,degraded\nm4,b9,ok\nm1,?,degraded\n"
	p1 := write("s1.csv", header+rows1)
	p2 := write("s2.csv", header+rows2)
	all := write("all.csv", header+rows1+rows2)
	load := LoadOptions{Class: "outcome", Categorical: []string{"model", "band", "outcome"}}

	want := singleSession(t, all, load)
	got, err := BuildSharded([]string{p1, p2}, ShardOptions{Load: load})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCubes(t, got, want)
	// Spot-check a query spanning labels only one shard contributed.
	wc, err := want.Compare("model", "m1", "m3", "drop", CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gc, err := got.Compare("model", "m1", "m3", "drop", CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wc, gc) {
		t.Error("cross-shard comparison differs from single-pass")
	}
}

// TestLoadShardSnapshots: the warm-start assembly — shard sessions
// snapshot to files, the daemon merges at load — must answer queries
// exactly like the single-pass session.
func TestLoadShardSnapshots(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	all, shards, load, gt := shardWorkload(t, 2)
	want := singleSession(t, all, load)

	dir := t.TempDir()
	paths := make([]string, len(shards))
	for i, sh := range shards {
		s, err := LoadCSVFile(sh, load)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.BuildCubes(); err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, "shard"+string(rune('0'+i))+".omapsnap")
		if err := s.SaveSnapshotFile(paths[i], SnapshotOptions{SourceHash: HashSourceString(sh)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadShardSnapshots(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Errorf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	assertSameQueries(t, want, got, gt)
}

func TestMergeFromErrors(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	built := func() *Session {
		s, _, err := GenerateCallLog(CallLogConfig{Seed: 7, Records: 500, NumPhones: 3, NoiseAttrs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Discretize(DiscretizeOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := s.BuildCubes(); err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("nil and self", func(t *testing.T) {
		s := built()
		if err := s.MergeFrom(nil); err == nil {
			t.Error("nil source accepted")
		}
		if err := s.MergeFrom(s); err == nil {
			t.Error("self-merge accepted")
		}
	})
	t.Run("cubes not built", func(t *testing.T) {
		s, _, err := GenerateCallLog(CallLogConfig{Seed: 7, Records: 500, NumPhones: 3, NoiseAttrs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.MergeFrom(built()); err == nil || !strings.Contains(err.Error(), "BuildCubes") {
			t.Errorf("err = %v, want cubes-not-built error", err)
		}
	})
	t.Run("lazy engine", func(t *testing.T) {
		s, _, err := GenerateCallLog(CallLogConfig{Seed: 7, Records: 500, NumPhones: 3, NoiseAttrs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Discretize(DiscretizeOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := s.BuildCubesOptions(context.Background(), BuildOptions{Lazy: true}); err != nil {
			t.Fatal(err)
		}
		if err := built().MergeFrom(s); err == nil || !strings.Contains(err.Error(), "lazy") {
			t.Errorf("err = %v, want lazy rejection", err)
		}
	})
	// continuous builds a session over a forced-continuous column,
	// discretized with the given manual cuts and cubed: the controlled
	// way to get raw != ds and a non-empty cuts map.
	continuous := func(cuts []float64) *Session {
		path := filepath.Join(t.TempDir(), "cont.csv")
		if err := os.WriteFile(path, []byte("x,c\n0.1,yes\n0.9,no\n1.7,yes\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		s, err := LoadCSVFile(path, LoadOptions{Class: "c", Continuous: []string{"x"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Discretize(DiscretizeOptions{Manual: map[string][]float64{"x": cuts}}); err != nil {
			t.Fatal(err)
		}
		if err := s.BuildCubes(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Run("discretized with undiscretized", func(t *testing.T) {
		if err := continuous([]float64{0.5}).MergeFrom(built()); err == nil || !strings.Contains(err.Error(), "discretized") {
			t.Errorf("err = %v, want discretization-state mismatch", err)
		}
	})
	t.Run("cuts mismatch names attribute", func(t *testing.T) {
		a := continuous([]float64{0.5})
		b := continuous([]float64{1.0})
		if err := a.MergeFrom(b); err == nil || !strings.Contains(err.Error(), `"x"`) {
			t.Errorf("err = %v, want cuts mismatch naming \"x\"", err)
		}
	})
	t.Run("schema mismatch names attribute", func(t *testing.T) {
		dir := t.TempDir()
		w1 := filepath.Join(dir, "a.csv")
		w2 := filepath.Join(dir, "b.csv")
		if err := os.WriteFile(w1, []byte("x,c\n1,yes\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(w2, []byte("y,c\n1,yes\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		load := func(p, name string) *Session {
			s, err := LoadCSVFile(p, LoadOptions{Class: "c", Categorical: []string{name, "c"}})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.BuildCubes(); err != nil {
				t.Fatal(err)
			}
			return s
		}
		a := load(w1, "x")
		b := load(w2, "y")
		if err := a.MergeFrom(b); err == nil || !strings.Contains(err.Error(), `"x"`) {
			t.Errorf("err = %v, want schema mismatch naming \"x\"", err)
		}
	})
}

func TestBuildShardedRejects(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	if _, err := BuildSharded(nil, ShardOptions{}); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := BuildSharded([]string{"x.csv"}, ShardOptions{Build: BuildOptions{Lazy: true}}); err == nil || !strings.Contains(err.Error(), "lazy") {
		t.Errorf("err = %v, want lazy rejection", err)
	}
}

func TestBuildShardedContextCancel(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	_, shards, load, _ := shardWorkload(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildShardedContext(ctx, shards, ShardOptions{Load: load}); err == nil {
		t.Error("cancelled context accepted")
	}
}
