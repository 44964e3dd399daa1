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
	return enginePair(t, CallLogConfig{Seed: 77, Records: 30000, NumPhones: 6, NoiseAttrs: 4}, 0)
}

// enginePair builds an eager and a lazy session over the call log cfg
// generates; cacheBytes is the lazy engine's budget (0: the default).
func enginePair(t testing.TB, cfg CallLogConfig, cacheBytes int64) (eager, lazy *Session, gt CallLogTruth) {
	t.Helper()
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
	if err := l.BuildCubesOptions(context.Background(), BuildOptions{Lazy: true, CubeCacheBytes: cacheBytes}); err != nil {
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
	if !reflect.DeepEqual(breakdowns(t, want), breakdowns(t, got)) {
		t.Error("lazy per-value breakdowns differ from eager")
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
	// The eager session pins every 1-D and pair cube: CubeCount and
	// RuleSpaceSize are its store's cube and cell counts, at 8 bytes a
	// cell.
	var cells, bytes int64
	cubes := eager.src.ResidentCubes()
	for _, c := range cubes {
		cells += c.RuleCount()
		bytes += c.SizeBytes()
	}
	if n := len(eager.src.Attrs()); eager.CubeCount() != len(cubes) || len(cubes) != n+n*(n-1)/2 {
		t.Errorf("eager CubeCount %d, store cubes %d, want %d", eager.CubeCount(), len(cubes), n+n*(n-1)/2)
	}
	if eager.RuleSpaceSize() != cells || bytes != 8*cells {
		t.Errorf("eager RuleSpaceSize %d, store cells %d, bytes %d", eager.RuleSpaceSize(), cells, bytes)
	}
	if _, err := lazy.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := lazy.CubeCount(); n == 0 {
		t.Error("lazy CubeCount after a compare should count resident cubes")
	}
}

// wholeStoreViews runs every view that reads all of a session's
// attributes: an exploration script through overview, detail, detail3,
// compare, focus, impressions and back, the overall map as text and
// SVG, and the cube-exception baseline.
func wholeStoreViews(t *testing.T, s *Session, gt CallLogTruth) (script, overall, svg string, exceptions []CubeException) {
	t.Helper()
	var sb, ob, vb strings.Builder
	commands := strings.Join([]string{
		"detail " + gt.PhoneAttr,
		"detail3 " + gt.PhoneAttr + " " + gt.DistinguishingAttr,
		"compare " + gt.PhoneAttr + " " + gt.GoodPhone + " " + gt.BadPhone + " " + gt.DropClass,
		"focus",
		"impressions",
		"back",
		"back",
		"overview",
	}, "\n")
	if err := s.ExploreScript(commands, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "error:") {
		t.Fatalf("exploration script reported an error:\n%s", sb.String())
	}
	if err := s.RenderOverall(&ob); err != nil {
		t.Fatal(err)
	}
	if err := s.RenderOverallSVG(&vb); err != nil {
		t.Fatal(err)
	}
	exceptions, err := s.CubeExceptions(0)
	if err != nil {
		t.Fatal(err)
	}
	return sb.String(), ob.String(), vb.String(), exceptions
}

// TestLazyWholeStoreViewsMatchEager: a lazy session serves every
// whole-store view and answers byte-for-byte as the eager session does,
// also under a 1 MiB budget that a 66-attribute schema's pair cubes
// (1.7 MB) overflow, so CubeExceptions streams them under eviction.
// CubeExceptions counts one shared scan per anchor attribute with a
// later partner on a cold lazy session, and none on a pinned one.
func TestLazyWholeStoreViewsMatchEager(t *testing.T) {
	scans := obsv.Default().Counter(rulecube.CubeScansCounterName)
	exceptionScans := func(s *Session) int64 {
		t.Helper()
		s0 := scans.Value()
		if _, err := s.CubeExceptions(0); err != nil {
			t.Fatal(err)
		}
		return scans.Value() - s0
	}
	for _, c := range []struct {
		name       string
		cfg        CallLogConfig
		cacheBytes int64
	}{
		{"default budget", CallLogConfig{Seed: 77, Records: 30000, NumPhones: 6, NoiseAttrs: 4}, 0},
		{"1 MiB budget", CallLogConfig{Seed: 77, Records: 10000, NumPhones: 6, NoiseAttrs: 60}, 1 << 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			eager, lazy, gt := enginePair(t, c.cfg, c.cacheBytes)
			if d := exceptionScans(eager); d != 0 {
				t.Errorf("pinned CubeExceptions counted %d scans, want 0", d)
			}
			if n, d := int64(len(lazy.src.Attrs())), exceptionScans(lazy); d != n-1 {
				t.Errorf("cold lazy CubeExceptions counted %d scans, want %d (one per anchor attribute)", d, n-1)
			}
			if ev := lazy.EngineStats().CubeCacheEvictions; c.cacheBytes > 0 && ev == 0 {
				t.Error("CubeExceptions evicted nothing; the budget does not bind")
			}
			wantScript, wantOverall, wantSVG, wantEx := wholeStoreViews(t, eager, gt)
			if len(wantEx) == 0 {
				t.Fatal("eager CubeExceptions found nothing in planted data")
			}
			script, overall, svg, ex := wholeStoreViews(t, lazy, gt)
			if script != wantScript {
				t.Errorf("exploration transcript differs from eager:\n%s\nwant:\n%s", script, wantScript)
			}
			if overall != wantOverall {
				t.Error("RenderOverall differs from eager")
			}
			if svg != wantSVG {
				t.Error("RenderOverallSVG differs from eager")
			}
			if !reflect.DeepEqual(ex, wantEx) {
				t.Errorf("CubeExceptions differ from eager (%d vs %d exceptions)", len(ex), len(wantEx))
			}
		})
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
