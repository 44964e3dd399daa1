package opmap

import (
	"bytes"
	"context"
	"encoding/csv"
	"reflect"
	"testing"

	"opmap/internal/rulecube"
)

// drillSession builds the drill-case session with the chosen engine.
func drillSession(t *testing.T, lazy bool) (*Session, DrillCaseTruth) {
	t.Helper()
	s, gt, err := GenerateDrillCase(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubesOptions(context.Background(), BuildOptions{Lazy: lazy}); err != nil {
		t.Fatal(err)
	}
	return s, gt
}

// TestDrillDownRecoversPair drives the full public path: the planted
// two-condition effect must rank first while the plain comparison's
// top attribute is the decoy.
func TestDrillDownRecoversPair(t *testing.T) {
	s, gt := drillSession(t, true)
	res, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("unexpected partial result: %+v", res.Unexplored)
	}
	if res.Label1 != gt.GoodPhone || res.Label2 != gt.BadPhone {
		t.Fatalf("orientation %q vs %q, want %q vs %q", res.Label1, res.Label2, gt.GoodPhone, gt.BadPhone)
	}
	top := res.Root.Top(1)
	if len(top) == 0 || top[0].Name != gt.SurfaceAttr {
		t.Fatalf("root ranking top = %+v, want decoy %q", top, gt.SurfaceAttr)
	}
	if len(res.Findings) == 0 {
		t.Fatal("no findings")
	}
	f := res.Findings[0]
	if f.Depth != 2 {
		t.Fatalf("top finding %s at depth %d, want the planted pair at depth 2", f.Label(), f.Depth)
	}
	got := map[string]string{}
	for _, c := range f.Conds {
		got[c.Attr] = c.Value
	}
	if got[gt.JointAttrA] != gt.JointValueA || got[gt.JointAttrB] != gt.JointValueB {
		t.Fatalf("top finding %s, want %s=%s & %s=%s", f.Label(), gt.JointAttrA, gt.JointValueA, gt.JointAttrB, gt.JointValueB)
	}
}

// TestDrillDownMemoized asserts the second identical query is served
// from the session result cache, and that option changes miss.
func TestDrillDownMemoized(t *testing.T) {
	s, gt := drillSession(t, false)
	run := func(opts DrillOptions) *DrillResult {
		t.Helper()
		res, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(DrillOptions{})
	hits0 := s.EngineStats().ResultCacheHits
	second := run(DrillOptions{})
	hits1 := s.EngineStats().ResultCacheHits
	if hits1 != hits0+1 {
		t.Fatalf("repeat query: result-cache hits %d -> %d, want +1", hits0, hits1)
	}
	if len(first.Findings) != len(second.Findings) || first.Findings[0].Label() != second.Findings[0].Label() {
		t.Fatal("cached result differs from computed result")
	}
	// The swapped value order is the same comparison, so it hits too.
	run2, err := s.DrillDown(gt.PhoneAttr, gt.BadPhone, gt.GoodPhone, gt.DropClass, DrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.EngineStats().ResultCacheHits != hits1+1 {
		t.Fatal("swapped value order missed the result cache")
	}
	if run2.Findings[0].Label() != first.Findings[0].Label() {
		t.Fatal("swapped-order result differs")
	}
	// A different measure is a different result: no hit.
	run(DrillOptions{Measure: "lift"})
	if got := s.EngineStats().ResultCacheHits; got != hits1+1 {
		t.Fatalf("lift-measure query hit the cache (hits %d)", got)
	}
}

// TestDrillDownValidation covers name resolution and measure errors.
func TestDrillDownValidation(t *testing.T) {
	s, gt := drillSession(t, true)
	if _, err := s.DrillDown("No-Such-Attr", gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{Measure: "entropy"}); err == nil {
		t.Error("unknown measure accepted")
	}
	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.GoodPhone, gt.DropClass, DrillOptions{}); err == nil {
		t.Error("identical values accepted")
	}
	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{
		Compare: CompareOptions{Attrs: []string{gt.PhoneAttr}},
	}); err == nil {
		t.Error("self-ranking attrs list accepted")
	}
}

// TestDrillDownInvalidatedByIngest appends rows and expects the next
// drill-down to recompute rather than serve the stale entry.
func TestDrillDownInvalidatedByIngest(t *testing.T) {
	s, gt := drillSession(t, true)
	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{}); err != nil {
		t.Fatal(err)
	}
	misses0 := s.EngineStats().ResultCacheMisses
	hits0 := s.EngineStats().ResultCacheHits

	// One appended row touches every attribute: the unrestricted
	// drill-down (nil deps = depends-on-all) must be invalidated.
	attrs := s.Attributes()
	row := make([]string, len(attrs))
	for i, a := range attrs {
		if a == s.ClassAttribute() {
			row[i] = gt.DropClass
			continue
		}
		vals, err := s.Values(a)
		if err != nil {
			t.Fatal(err)
		}
		row[i] = vals[0]
	}
	if err := s.Append([][]string{row}); err != nil {
		t.Fatal(err)
	}

	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.EngineStats()
	if st.ResultCacheHits != hits0 {
		t.Fatalf("post-ingest drill-down hit the stale cache (hits %d -> %d)", hits0, st.ResultCacheHits)
	}
	if st.ResultCacheMisses <= misses0 {
		t.Fatalf("post-ingest drill-down did not recompute (misses %d -> %d)", misses0, st.ResultCacheMisses)
	}
}

// TestDrillCubesFollowIngest: the k ≥ 3 cubes an eager session
// materializes for drill-down live outside its store, and an append
// must fold into them as into the store's cubes — a resident 3-D cube
// afterwards equals one counted fresh over the grown dataset.
func TestDrillCubesFollowIngest(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		s, gt := drillSession(t, lazy)
		ctx := context.Background()
		attrs := []int{0, 1, 2}
		if _, err := s.src.CubeN(ctx, attrs); err != nil {
			t.Fatal(err)
		}
		row := make([]string, len(s.Attributes()))
		for i, a := range s.Attributes() {
			if a == s.ClassAttribute() {
				row[i] = gt.DropClass
				continue
			}
			vals, err := s.Values(a)
			if err != nil {
				t.Fatal(err)
			}
			row[i] = vals[0]
		}
		if err := s.Append([][]string{row, row, row}); err != nil {
			t.Fatal(err)
		}
		got, err := s.src.CubeN(ctx, attrs)
		if err != nil {
			t.Fatal(err)
		}
		cubes, err := rulecube.BuildMany(context.Background(), s.ds, [][]int{attrs})
		if err != nil {
			t.Fatal(err)
		}
		want := cubes[0]
		if got.Total() != want.Total() || !reflect.DeepEqual(got.ClassMarginals(), want.ClassMarginals()) {
			t.Errorf("lazy=%v: resident 3-D cube total %d, fresh count %d", lazy, got.Total(), want.Total())
		}
		if !reflect.DeepEqual(cellsOf(got), cellsOf(want)) {
			t.Errorf("lazy=%v: resident 3-D cube cells differ from a fresh count", lazy)
		}
	}
}

// cellsOf lists a cube's cell counts in cell order.
func cellsOf(c *rulecube.Cube) []int64 {
	var out []int64
	c.ForEach(func(_ []int32, _ int32, n int64) { out = append(out, n) })
	return out
}

// TestDrillDownOnRestoredSessionErrors: a session restored from its
// snapshot holds the source rows, so it counts the k ≥ 3 cubes a
// drill-down needs and ranks exactly the findings of the session it
// was taken from. (The name is from when snapshots held no rows and
// this drill-down had to fail.)
func TestDrillDownOnRestoredSessionErrors(t *testing.T) {
	s, gt := drillSession(t, false)
	var snap bytes.Buffer
	if err := s.SaveSnapshot(&snap, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Findings, want.Findings) {
		t.Errorf("restored drill-down differs from the cold session's: got %d findings, want %d", len(got.Findings), len(want.Findings))
	}
}

// TestMergeFromDropsDrillCubes: an eager session that has drilled
// holds k ≥ 3 cubes counted over its own rows. After MergeFrom another
// shard, a drill-down must match a single-pass session over both
// shards' rows, not serve the stale cubes.
func TestMergeFromDropsDrillCubes(t *testing.T) {
	full, gt, err := GenerateDrillCase(7, 20000)
	if err != nil {
		t.Fatal(err)
	}
	ds := full.ds
	header := make([]string, ds.NumAttrs())
	for i := range header {
		header[i] = ds.Attr(i).Name
	}
	load := LoadOptions{Class: full.ClassAttribute(), Categorical: header}
	csvOf := func(lo, hi int) *bytes.Buffer {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.Write(header); err != nil {
			t.Fatal(err)
		}
		for r := lo; r < hi; r++ {
			if err := w.Write(ds.Row(r)); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		return &buf
	}
	session := func(lo, hi int) *Session {
		s, err := LoadCSV(csvOf(lo, hi), load)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.BuildCubes(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	drill := func(s *Session) *DrillResult {
		res, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	half := ds.NumRows() / 2
	merged, other, single := session(0, half), session(half, ds.NumRows()), session(0, ds.NumRows())
	drill(merged)
	if err := merged.MergeFrom(other); err != nil {
		t.Fatal(err)
	}
	got, want := drill(merged), drill(single)
	if !reflect.DeepEqual(got.Findings, want.Findings) {
		t.Fatalf("drill-down after merge differs from single pass:\ngot  %d findings, top %+v\nwant %d findings, top %+v",
			len(got.Findings), got.Findings[0], len(want.Findings), want.Findings[0])
	}
}

// TestLazySnapshotAfterDrill: a lazy session holding k ≥ 3 drill-down
// cubes still snapshots — the file carries its resident 1-D and pair
// cubes — and the restored lazy session holds exactly those.
func TestLazySnapshotAfterDrill(t *testing.T) {
	s, gt := drillSession(t, true)
	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{}); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/lazy.omapsnap"
	if err := s.SaveSnapshotFile(path, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	var want int
	for _, c := range s.src.ResidentCubes() {
		if c.NumDims() <= 2 {
			want++
		}
	}
	restored, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := restored.CubeCount(); n != want {
		t.Fatalf("restored %d cubes, want the %d resident 1-D and pair cubes", n, want)
	}
}
