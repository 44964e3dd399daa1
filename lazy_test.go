package opmap

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"opmap/internal/obsv"
	"opmap/internal/rulecube"
)

// lazyPair builds two sessions over identically generated data: one
// eager, one lazy. The pair backs the session-level oracle tests.
func lazyPair(t testing.TB) (eager, lazy *Session, gt CallLogTruth) {
	t.Helper()
	cfg := CallLogConfig{Seed: 77, Records: 30000, NumPhones: 6, NoiseAttrs: 4}
	e, gt, err := GenerateCallLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := GenerateCallLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{e, l} {
		if err := s.Discretize(DiscretizeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	if err := l.BuildCubesOptions(context.Background(), BuildOptions{Lazy: true}); err != nil {
		t.Fatal(err)
	}
	return e, l, gt
}

func TestLazyCompareMatchesEager(t *testing.T) {
	eager, lazy, gt := lazyPair(t)
	opts := CompareOptions{}
	want, err := eager.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lazy.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cf1 != got.Cf1 || want.Cf2 != got.Cf2 || want.Ratio != got.Ratio {
		t.Errorf("confidences differ: eager (%g,%g,%g), lazy (%g,%g,%g)",
			want.Cf1, want.Cf2, want.Ratio, got.Cf1, got.Cf2, got.Ratio)
	}
	if !reflect.DeepEqual(want.Ranked(), got.Ranked()) {
		t.Error("lazy ranking differs from eager")
	}
	if !reflect.DeepEqual(want.PropertyAttributes(), got.PropertyAttributes()) {
		t.Error("lazy property attributes differ from eager")
	}
}

func TestLazySweepAndImpressionsMatchEager(t *testing.T) {
	eager, lazy, gt := lazyPair(t)
	ws, err := eager.Sweep(gt.PhoneAttr, gt.DropClass, 3)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := lazy.Sweep(gt.PhoneAttr, gt.DropClass, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws, gs) {
		t.Error("lazy sweep differs from eager")
	}
	wi, err := eager.Impressions(ImpressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gi, err := lazy.Impressions(ImpressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wi, gi) {
		t.Error("lazy impressions differ from eager")
	}
}

func TestLazySessionResultCache(t *testing.T) {
	_, lazy, gt := lazyPair(t)
	scans := obsv.Default().Counter(rulecube.CubeScansCounterName)
	s0 := scans.Value()
	if _, err := lazy.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{}); err != nil {
		t.Fatal(err)
	}
	if scans.Value() == s0 {
		t.Fatal("first compare on a cold lazy session counted nothing")
	}
	st := lazy.EngineStats()
	if !st.Lazy {
		t.Fatal("EngineStats.Lazy = false on a lazy session")
	}
	if st.ResultCacheMisses == 0 || st.ResultCacheEntries == 0 {
		t.Fatalf("first compare should miss and cache: %+v", st)
	}
	s1 := scans.Value()
	if _, err := lazy.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{}); err != nil {
		t.Fatal(err)
	}
	st2 := lazy.EngineStats()
	if st2.ResultCacheHits == 0 {
		t.Errorf("second identical compare should hit the result cache: %+v", st2)
	}
	if d := scans.Value() - s1; d != 0 {
		t.Errorf("cached compare counted again: %d scans", d)
	}
	// A swapped value pair normalizes to the same key.
	if _, err := lazy.Compare(gt.PhoneAttr, gt.BadPhone, gt.GoodPhone, gt.DropClass, CompareOptions{}); err != nil {
		t.Fatal(err)
	}
	if st3 := lazy.EngineStats(); st3.ResultCacheHits <= st2.ResultCacheHits {
		t.Error("swapped value order should share the cache entry")
	}
}

func TestLazyCubeCountAndRuleSpace(t *testing.T) {
	eager, lazy, gt := lazyPair(t)
	if n := lazy.CubeCount(); n != 0 {
		t.Errorf("lazy CubeCount before any query = %d, want 0", n)
	}
	if e, l := eager.RuleSpaceSize(), lazy.RuleSpaceSize(); e != l {
		t.Errorf("RuleSpaceSize: eager %d, lazy %d", e, l)
	}
	if _, err := lazy.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := lazy.CubeCount(); n == 0 {
		t.Error("lazy CubeCount after a compare should count resident cubes")
	}
}

func TestLazyEagerOnlyOps(t *testing.T) {
	_, lazy, _ := lazyPair(t)
	var buf bytes.Buffer
	for name, call := range map[string]func() error{
		"SaveCubes":      func() error { return lazy.SaveCubes(&buf) },
		"Explore":        func() error { return lazy.Explore(strings.NewReader("quit\n"), &buf) },
		"RenderOverall":  func() error { return lazy.RenderOverall(&buf) },
		"CubeExceptions": func() error { _, err := lazy.CubeExceptions(0); return err },
	} {
		err := call()
		if err == nil {
			t.Errorf("%s should fail in lazy mode", name)
			continue
		}
		if !strings.Contains(err.Error(), "lazy mode") {
			t.Errorf("%s error should mention lazy mode, got: %v", name, err)
		}
	}
}

func TestRediscretizeInvalidatesEngine(t *testing.T) {
	_, lazy, gt := lazyPair(t)
	if _, err := lazy.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{}); err != nil {
		t.Fatal(err)
	}
	if lazy.EngineStats().ResultCacheEntries == 0 {
		t.Fatal("expected a cached result before re-discretize")
	}
	if err := lazy.Discretize(DiscretizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := lazy.EngineStats().ResultCacheEntries; n != 0 {
		t.Errorf("re-discretize left %d cached results", n)
	}
	if _, err := lazy.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{}); err == nil {
		t.Error("compare after re-discretize should require a rebuild")
	}
	if err := lazy.BuildCubesOptions(context.Background(), BuildOptions{Lazy: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{}); err != nil {
		t.Errorf("compare after rebuild failed: %v", err)
	}
}

func TestLazyRenderDetailed(t *testing.T) {
	eager, lazy, gt := lazyPair(t)
	var we, wl bytes.Buffer
	if err := eager.RenderDetailed(&we, gt.PhoneAttr); err != nil {
		t.Fatal(err)
	}
	if err := lazy.RenderDetailed(&wl, gt.PhoneAttr); err != nil {
		t.Fatal(err)
	}
	if we.String() != wl.String() {
		t.Error("detailed view differs between engines")
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if got := satAdd(math.MaxInt64-1, 5); got != math.MaxInt64 {
		t.Errorf("satAdd overflow = %d", got)
	}
	if got := satAdd(3, 4); got != 7 {
		t.Errorf("satAdd(3,4) = %d", got)
	}
	if got := satMul(math.MaxInt64/2, 3); got != math.MaxInt64 {
		t.Errorf("satMul overflow = %d", got)
	}
	if got := satMul(0, math.MaxInt64); got != 0 {
		t.Errorf("satMul(0,max) = %d", got)
	}
	if got := satMul(6, 7); got != 42 {
		t.Errorf("satMul(6,7) = %d", got)
	}
}
