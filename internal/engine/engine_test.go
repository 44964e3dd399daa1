package engine_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"opmap/internal/compare"
	"opmap/internal/dataset"
	"opmap/internal/drill"
	"opmap/internal/engine"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/testutil"
	"opmap/internal/workload"
)

// oracle builds one planted call-log dataset with two sources over it
// — one with every 1-D and pair cube pinned up front, one lazy — so
// every test can assert lazy ≡ eager.
func oracle(t testing.TB) (*dataset.Dataset, workload.GroundTruth, *engine.LazySource, *engine.LazySource) {
	t.Helper()
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 42, Records: 8000, NumPhones: 6, NoiseAttrs: 4})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eager.PinAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ds, gt, eager, lazy
}

func compareInput(t testing.TB, ds *dataset.Dataset, gt workload.GroundTruth) compare.Input {
	t.Helper()
	attr := ds.AttrIndex(gt.PhoneAttr)
	v1, ok1 := ds.Column(attr).Dict.Lookup(gt.GoodPhone)
	v2, ok2 := ds.Column(attr).Dict.Lookup(gt.BadPhone)
	cls, ok3 := ds.ClassDict().Lookup(gt.DropClass)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("ground truth labels missing from dataset")
	}
	return compare.Input{Attr: attr, V1: v1, V2: v2, Class: cls}
}

// TestOracleCompareAndSweep is the acceptance oracle: the lazy engine
// must return results identical to the eager store for the paper's two
// fan-out queries.
func TestOracleCompareAndSweep(t *testing.T) {
	ds, gt, eager, lazy := oracle(t)
	ctx := context.Background()
	in := compareInput(t, ds, gt)

	eagerRes, err := compare.NewSource(eager).CompareContext(ctx, in, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lazyRes, err := compare.NewSource(lazy).CompareContext(ctx, in, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eagerRes, lazyRes) {
		t.Errorf("lazy Compare result differs from eager:\neager: %+v\nlazy:  %+v", eagerRes, lazyRes)
	}

	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	attr := ds.AttrIndex(gt.PhoneAttr)
	eagerSweep, err := compare.NewSource(eager).SweepContext(ctx, attr, cls, compare.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lazySweep, err := compare.NewSource(lazy).SweepContext(ctx, attr, cls, compare.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eagerSweep, lazySweep) {
		t.Errorf("lazy Sweep result differs from eager:\neager: %+v\nlazy:  %+v", eagerSweep, lazySweep)
	}
}

// TestOracleCubeOps runs the OLAP operators over cubes served by both
// engines: same pair, same rollup/slice/dice cells.
func TestOracleCubeOps(t *testing.T) {
	ds, _, eager, lazy := oracle(t)
	ctx := context.Background()
	a, b := 0, 1
	if ds.ClassIndex() <= 1 {
		t.Fatal("test assumes the class is not attribute 0 or 1")
	}

	ec, err := eager.CubeN(ctx, []int{a, b})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := lazy.CubeN(ctx, []int{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ec, lc) {
		t.Fatal("lazy pair cube differs from eager")
	}

	for pos := 0; pos < 2; pos++ {
		er, err1 := ec.Rollup(pos)
		lr, err2 := lc.Rollup(pos)
		if err1 != nil || err2 != nil {
			t.Fatalf("rollup(%d): %v / %v", pos, err1, err2)
		}
		if !reflect.DeepEqual(er, lr) {
			t.Errorf("rollup(%d) differs between engines", pos)
		}
		for v := int32(0); int(v) < ec.Dim(pos); v++ {
			es, err1 := ec.Slice(pos, v)
			ls, err2 := lc.Slice(pos, v)
			if err1 != nil || err2 != nil {
				t.Fatalf("slice(%d,%d): %v / %v", pos, v, err1, err2)
			}
			if !reflect.DeepEqual(es, ls) {
				t.Errorf("slice(%d,%d) differs between engines", pos, v)
			}
		}
	}

	keep := []int32{0, 1}
	ed, err1 := ec.Dice(0, keep)
	ld, err2 := lc.Dice(0, keep)
	if err1 != nil || err2 != nil {
		t.Fatalf("dice: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(ed, ld) {
		t.Error("dice differs between engines")
	}
}

// TestOracleOneD asserts identical 1-D cubes and that both engines
// serve the same attribute set.
func TestOracleOneD(t *testing.T) {
	_, _, eager, lazy := oracle(t)
	ctx := context.Background()
	if !reflect.DeepEqual(eager.Attrs(), lazy.Attrs()) {
		t.Fatalf("attr sets differ: eager %v, lazy %v", eager.Attrs(), lazy.Attrs())
	}
	for _, a := range eager.Attrs() {
		ec, err := eager.CubeN(ctx, []int{a})
		if err != nil {
			t.Fatal(err)
		}
		lc, err := lazy.CubeN(ctx, []int{a})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ec, lc) {
			t.Errorf("1-D cube for attribute %d differs between engines", a)
		}
	}
}

// TestSingleflightOneBuildPerKey hammers first-touch of the same cubes
// from many goroutines under -race: every caller must get the same
// cube, and each key must be built exactly once.
func TestSingleflightOneBuildPerKey(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	ds, _, _, lazy := oracle(t)
	if ds.ClassIndex() <= 2 {
		t.Fatal("test assumes attributes 0..2 are not the class")
	}
	ctx := context.Background()
	const workers = 16
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}}

	var wg sync.WaitGroup
	cubes := make([][]*rulecube.Cube, len(pairs))
	for i := range cubes {
		cubes[i] = make([]*rulecube.Cube, workers)
	}
	oneD := make([]*rulecube.Cube, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i, p := range pairs {
				c, err := lazy.CubeN(ctx, []int{p[0], p[1]})
				if err != nil {
					t.Errorf("CubeN(%v): %v", p, err)
					return
				}
				cubes[i][w] = c
			}
			c, err := lazy.CubeN(ctx, []int{0})
			if err != nil {
				t.Errorf("CubeN({0}): %v", err)
				return
			}
			oneD[w] = c
		}(w)
	}
	close(start)
	wg.Wait()

	for i := range pairs {
		for w := 1; w < workers; w++ {
			if cubes[i][w] != cubes[i][0] {
				t.Errorf("pair %v: worker %d got a different cube instance", pairs[i], w)
			}
		}
	}
	for w := 1; w < workers; w++ {
		if oneD[w] != oneD[0] {
			t.Errorf("1-D cube: worker %d got a different cube instance", w)
		}
	}
	st := lazy.Stats()
	if st.TwoDBuilds != int64(len(pairs)) {
		t.Errorf("TwoDBuilds = %d, want exactly %d (singleflight)", st.TwoDBuilds, len(pairs))
	}
	if st.OneDBuilds != 1 {
		t.Errorf("OneDBuilds = %d, want exactly 1", st.OneDBuilds)
	}
	if st.Hits+st.Misses != int64(len(pairs)*workers) {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, len(pairs)*workers)
	}
}

// TestLRUEviction forces the 2-D cache over budget and checks the
// accounting plus that an evicted cube rebuilds correctly.
func TestLRUEviction(t *testing.T) {
	ds, _, eager, _ := oracle(t)
	ctx := context.Background()
	// Budget for roughly one pair cube: the second distinct pair must
	// evict the first.
	probe, err := eager.CubeN(ctx, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{CacheBytes: probe.SizeBytes() + 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.CubeN(ctx, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.CubeN(ctx, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	st := lazy.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected at least one eviction with a one-cube budget")
	}
	if st.CachedBytes > probe.SizeBytes()+1 {
		t.Errorf("CachedBytes %d exceeds budget %d", st.CachedBytes, probe.SizeBytes()+1)
	}
	// The evicted pair must rebuild and still match the eager cube.
	again, err := lazy.CubeN(ctx, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, probe) {
		t.Error("rebuilt cube after eviction differs from eager")
	}
	if got := lazy.Stats().TwoDBuilds; got < 3 {
		t.Errorf("TwoDBuilds = %d, want >= 3 (rebuild after eviction)", got)
	}
}

// TestLazyErrors covers the contract edges: unknown attributes, the
// class attribute, identical pairs, and pre-canceled contexts.
func TestLazyErrors(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	ds, _, _, lazy := oracle(t)
	ctx := context.Background()
	if _, err := lazy.CubeN(ctx, []int{ds.ClassIndex()}); err == nil {
		t.Error("1-D cube over the class should fail")
	}
	if _, err := lazy.CubeN(ctx, []int{ds.NumAttrs() + 3}); err == nil {
		t.Error("1-D cube out of range should fail")
	}
	if _, err := lazy.CubeN(ctx, []int{1, 1}); err == nil {
		t.Error("pair cube (a,a) should fail")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := lazy.CubeN(canceled, []int{0, 1}); err == nil {
		t.Error("pair cube under a canceled context should fail")
	}
	// The failed build must not be cached: a fresh context succeeds.
	if _, err := lazy.CubeN(ctx, []int{0, 1}); err != nil {
		t.Errorf("retry after canceled build failed: %v", err)
	}
}

// TestCube2PairOrder checks pinned and lazy sources both normalize
// (b,a) to (a,b).
func TestCube2PairOrder(t *testing.T) {
	_, _, eager, lazy := oracle(t)
	ctx := context.Background()
	for name, src := range map[string]*engine.LazySource{"pinned": eager, "lazy": lazy} {
		fwd, err := src.CubeN(ctx, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		rev, err := src.CubeN(ctx, []int{1, 0})
		if err != nil {
			t.Fatal(err)
		}
		if fwd != rev {
			t.Errorf("%s: pair cubes {0,1} and {1,0} differ", name)
		}
	}
}

// TestResultCache covers versioned lookup, LRU bounding and
// invalidation.
func TestResultCache(t *testing.T) {
	rc := engine.NewResultCache(2)
	v := rc.Version()
	if _, ok := rc.Get(v, "a"); ok {
		t.Fatal("empty cache hit")
	}
	rc.Put(v, "a", 1)
	rc.Put(v, "b", 2)
	if got, ok := rc.Get(v, "a"); !ok || got.(int) != 1 {
		t.Fatalf("Get(a) = %v, %t", got, ok)
	}
	// "b" is now LRU; inserting "c" evicts it.
	rc.Put(v, "c", 3)
	if _, ok := rc.Get(v, "b"); ok {
		t.Error("b should have been evicted at max=2")
	}
	if rc.Len() != 2 {
		t.Errorf("Len = %d, want 2", rc.Len())
	}
	// Stale-version writes are dropped; stale reads miss.
	rc.Put(v-1, "stale", 9)
	if _, ok := rc.Get(v, "stale"); ok {
		t.Error("stale-version Put must be dropped")
	}
	if _, ok := rc.Get(v-1, "a"); ok {
		t.Error("stale-version Get must miss")
	}
	rc.Invalidate()
	if rc.Version() == v {
		t.Error("Invalidate must bump the version")
	}
	if rc.Len() != 0 {
		t.Errorf("Len after Invalidate = %d, want 0", rc.Len())
	}
	if _, ok := rc.Get(rc.Version(), "a"); ok {
		t.Error("entries must be cleared on Invalidate")
	}
}

// TestResultCacheEpochInvalidation: BumpAttrs removes exactly the
// entries whose dependency sets intersect the touched attributes —
// plus depends-on-all entries — and leaves the rest servable under
// the unchanged version.
func TestResultCacheEpochInvalidation(t *testing.T) {
	rc := engine.NewResultCache(0)
	v := rc.Version()
	rc.PutDeps(v, "attr1only", "a", []int{1})
	rc.PutDeps(v, "attr2and3", "b", []int{2, 3})
	rc.Put(v, "all", "c") // nil deps: depends on every attribute

	if n := rc.BumpAttrs([]int{3}); n != 2 {
		t.Errorf("BumpAttrs(3) removed %d entries, want 2 (attr2and3 + all)", n)
	}
	if _, ok := rc.Get(v, "attr1only"); !ok {
		t.Error("entry depending only on attr 1 must survive a bump of attr 3")
	}
	if _, ok := rc.Get(v, "attr2and3"); ok {
		t.Error("entry depending on attr 3 must be invalidated")
	}
	if _, ok := rc.Get(v, "all"); ok {
		t.Error("depends-on-all entry must be invalidated by any bump")
	}
	if rc.Version() != v {
		t.Error("BumpAttrs must not change the cache version")
	}
	if got := rc.AttrEpoch(3); got != 1 {
		t.Errorf("AttrEpoch(3) = %d, want 1", got)
	}
	if got := rc.AttrEpoch(1); got != 0 {
		t.Errorf("AttrEpoch(1) = %d, want 0", got)
	}
	if st := rc.Stats(); st.Invalidations != 2 {
		t.Errorf("Stats.Invalidations = %d, want 2", st.Invalidations)
	}
	// A bump touching nothing resident removes nothing.
	if n := rc.BumpAttrs([]int{9}); n != 0 {
		t.Errorf("BumpAttrs(9) removed %d entries, want 0", n)
	}
}

// TestLazyAttrSubset restricts the servable attributes and checks the
// boundary.
func TestLazyAttrSubset(t *testing.T) {
	ds, _, _, _ := oracle(t)
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{Attrs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := lazy.CubeN(ctx, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.CubeN(ctx, []int{0, 2}); err == nil {
		t.Error("pair outside the attr subset should fail")
	}
	if _, err := lazy.CubeN(ctx, []int{2}); err == nil {
		t.Error("attribute outside the subset should fail")
	}
	if _, err := engine.NewLazy(ds, engine.LazyOptions{Attrs: []int{ds.ClassIndex()}}); err == nil {
		t.Error("class in the attr list should fail")
	}
	if _, err := engine.NewLazy(ds, engine.LazyOptions{Attrs: []int{0, 0}}); err == nil {
		t.Error("duplicate attrs should fail")
	}
}

// TestConcurrentMixedWorkload drives compares and sweeps through the
// lazy engine from several goroutines under -race, with a small budget
// so evictions interleave with builds.
func TestConcurrentMixedWorkload(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	ds, gt, eager, _ := oracle(t)
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{CacheBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := compareInput(t, ds, gt)
	want, err := compare.NewSource(eager).CompareContext(ctx, in, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := compare.NewSource(lazy).CompareContext(ctx, in, compare.Options{})
				if err != nil {
					t.Errorf("compare: %v", err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent lazy compare diverged from eager")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := lazy.Stats(); st.Evictions == 0 {
		t.Logf("note: no evictions at budget 4096 (bytes=%d)", st.CachedBytes)
	}
}

// TestPreRegisterComplete pins the pre-registered metric surface — the
// server calls PreRegister at startup, and ci greps these exact
// strings from a fresh daemon's first scrape.
func TestPreRegisterComplete(t *testing.T) {
	reg := obsv.NewRegistry()
	engine.PreRegister(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, name := range []string{
		engine.CubeCacheHitsCounterName,
		engine.CubeCacheMissesCounterName,
		engine.CubeCacheEvictionsCounterName,
		engine.ResultCacheHitsCounterName,
		engine.ResultCacheMissesCounterName,
		engine.CubeCacheBytesGaugeName,
		engine.LazyBuildHistogramName,
	} {
		if name == "" {
			t.Fatal("empty metric name constant")
		}
		if !strings.Contains(scrape, name) {
			t.Errorf("metric %q absent from a pre-registered scrape", name)
		}
	}
}

// BenchmarkLazyWarmCube2 measures the warm LRU hit path.
func BenchmarkLazyWarmCube2(b *testing.B) {
	ds, _, _, _ := oracle(b)
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := lazy.CubeN(ctx, []int{0, 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lazy.CubeN(ctx, []int{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNDCacheBudget drives a full drill-down through a lazy source
// whose budget fits roughly one 3-D cube, and checks the k >= 3 path
// honors the shared byte budget: cached bytes never exceed it,
// evictions actually happen, and an evicted n-D cube rebuilds
// identically on re-request (in any attribute order).
func TestNDCacheBudget(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	ds, gt, eager, _ := oracle(t)
	ctx := context.Background()

	probe, err := eager.CubeN(ctx, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.SizeBytes() + 1
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}

	// A depth-2 drill expands frontier nodes with 3-attribute cube
	// batches, far more bytes than the budget admits at once.
	res, err := drill.New(lazy).DrillContext(ctx, compareInput(t, ds, gt), drill.Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("drill over planted workload returned no findings")
	}

	st := lazy.Stats()
	if st.CachedBytes > budget {
		t.Errorf("CachedBytes %d exceeds budget %d after drill", st.CachedBytes, budget)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions: the drill's cube set cannot fit a one-cube budget")
	}

	// Whatever was evicted rebuilds to the exact same cube, and a
	// permuted attribute set resolves to it.
	again, err := lazy.CubeN(ctx, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, probe) {
		t.Error("rebuilt 3-D cube differs from the eager-side build")
	}
	if got := lazy.Stats().CachedBytes; got > budget {
		t.Errorf("CachedBytes %d exceeds budget %d after rebuild", got, budget)
	}
}
