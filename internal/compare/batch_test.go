package compare

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"opmap/internal/engine"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
)

// batchSources builds the planted call log with an eager and a cold
// lazy comparator over it, for batch ≡ sequential oracle checks.
func batchSources(t testing.TB, records, noise int) (*Comparator, *Comparator, int, int32) {
	t.Helper()
	store, gt, ds := buildCaseStudy(t, records, noise)
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	attr := ds.AttrIndex(gt.PhoneAttr)
	cls, ok := ds.ClassDict().Lookup(gt.DropClass)
	if !ok {
		t.Fatal("ground truth class missing")
	}
	return NewSource(store), NewSource(lazy), attr, cls
}

// counterDelta returns how far the named default-registry counter
// moves while run executes.
func counterDelta(t *testing.T, name string, run func()) int64 {
	t.Helper()
	c := obsv.Default().Counter(name)
	before := c.Value()
	run()
	return c.Value() - before
}

// TestSweepBatchOracle is the batch oracle: a batched sweep on a cold
// lazy engine must be byte-for-byte identical to the same sweep over
// the fully counted store. The reference run counts nothing — every
// cube it reads was pinned when the store was built — so it is the
// sequential per-cube read of already-counted cells, not a second
// batched scan.
func TestSweepBatchOracle(t *testing.T) {
	eager, lazy, attr, cls := batchSources(t, 30000, 3)
	var ref *SweepResult
	scans := counterDelta(t, rulecube.CubeScansCounterName, func() {
		var err error
		if ref, err = eager.SweepContext(context.Background(), attr, cls, SweepOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if scans != 0 {
		t.Fatalf("reference sweep over the counted store performed %d scans, want 0", scans)
	}
	if ref.PairsCompared == 0 {
		t.Fatal("reference sweep compared nothing")
	}
	got, err := lazy.SweepContext(context.Background(), attr, cls, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("lazy batched sweep differs from the counted-store reference")
	}
}

// TestOneVsRestAllBatchOracle checks the all-values one-vs-rest the
// same way, with and without a restricted candidate list.
func TestOneVsRestAllBatchOracle(t *testing.T) {
	eager, lazy, attr, cls := batchSources(t, 30000, 3)
	for _, opts := range []Options{{}, {Attrs: []int{1, 2}}} {
		var ref *OneVsRestAllResult
		scans := counterDelta(t, rulecube.CubeScansCounterName, func() {
			var err error
			if ref, err = eager.OneVsRestAll(attr, cls, OneVsRestAllOptions{Compare: opts}); err != nil {
				t.Fatal(err)
			}
		})
		if scans != 0 {
			t.Fatalf("opts %+v: reference run over the counted store performed %d scans, want 0", opts, scans)
		}
		if len(ref.Results) == 0 {
			t.Fatal("reference one-vs-rest-all ranked nothing")
		}
		got, err := lazy.OneVsRestAll(attr, cls, OneVsRestAllOptions{Compare: opts})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("opts %+v: lazy batched one-vs-rest-all differs from the counted-store reference", opts)
		}
	}
}

// TestSweepSingleScan pins the shared-scan batch with exact counters:
// a full sweep over a cold lazy engine performs exactly one dataset
// scan and counts exactly the cubes it declared up front — the split
// attribute's 1-D cube plus one pair cube per candidate. Faulting the
// cubes in one by one would cost one scan per cube.
func TestSweepSingleScan(t *testing.T) {
	_, lazy, attr, cls := batchSources(t, 20000, 3)
	candidates := defaultRankAttrs(lazy.ds, attr)
	if len(candidates) < 2 {
		t.Fatalf("only %d candidate attributes; the scan count would prove nothing", len(candidates))
	}
	var built int64
	scans := counterDelta(t, rulecube.CubeScansCounterName, func() {
		built = counterDelta(t, rulecube.CubesBuiltCounterName, func() {
			if _, err := lazy.SweepContext(context.Background(), attr, cls, SweepOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	})
	if scans != 1 {
		t.Errorf("batched sweep performed %d scans, want exactly 1", scans)
	}
	if want := int64(1 + len(candidates)); built != want {
		t.Errorf("batched sweep built %d cubes, want %d (split 1-D cube + %d pair cubes)", built, want, len(candidates))
	}
}

// TestOneVsRestAllSingleScan is TestSweepSingleScan for the all-values
// one-vs-rest: one scan, and exactly the cubes batchReqsFor declares
// with marginals (split 1-D cube, each candidate's pair cube and its
// own 1-D marginal).
func TestOneVsRestAllSingleScan(t *testing.T) {
	_, lazy, attr, cls := batchSources(t, 20000, 3)
	reqs := batchReqsFor(lazy.src.Attrs(), attr, defaultRankAttrs(lazy.ds, attr), true)
	var built int64
	scans := counterDelta(t, rulecube.CubeScansCounterName, func() {
		built = counterDelta(t, rulecube.CubesBuiltCounterName, func() {
			if _, err := lazy.OneVsRestAll(attr, cls, OneVsRestAllOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	})
	if scans != 1 {
		t.Errorf("batched one-vs-rest-all performed %d scans, want exactly 1", scans)
	}
	if want := int64(len(reqs)); built != want {
		t.Errorf("batched one-vs-rest-all built %d cubes, want the %d it declares", built, want)
	}
}

// TestCompareCountsOnlyComparedRows pins a pairwise compare's counting
// with exact counters. On a lazy engine with the split attribute's
// 1-D cube resident and no pair cube, a compare makes exactly one
// pass over the rows of either side (one scan, those rows counted, no
// cube built) and leaves no pair cube resident. With every cube
// pinned it counts nothing. After a sweep over some candidates left
// their pair cubes resident, a compare reads those and counts only the
// rest in one pass. Every answer equals the counted store's.
func TestCompareCountsOnlyComparedRows(t *testing.T) {
	eager, lazy, attr, cls := batchSources(t, 20000, 3)
	ds := lazy.ds
	in := Input{Attr: attr, V1: 0, V2: 1, Class: cls}
	want, err := eager.Compare(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var selected int64
	for r := 0; r < ds.NumRows(); r++ {
		if v := ds.CatCode(r, attr); (v == 0 || v == 1) && ds.ClassCode(r) >= 0 {
			selected++
		}
	}
	candidates := defaultRankAttrs(ds, attr)
	ctx := context.Background()

	// compare runs one compare on c and returns its counter deltas.
	compare := func(c *Comparator) (scans, built, rows int64) {
		t.Helper()
		rows = counterDelta(t, rulecube.RowsCountedCounterName, func() {
			scans = counterDelta(t, rulecube.CubeScansCounterName, func() {
				built = counterDelta(t, rulecube.CubesBuiltCounterName, func() {
					got, err := c.Compare(in, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Error("compare differs from the counted-store answer")
					}
				})
			})
		})
		return scans, built, rows
	}

	// Cold pairs, split attribute's 1-D cube resident.
	if _, err := lazy.src.CubeN(ctx, []int{attr}); err != nil {
		t.Fatal(err)
	}
	st0 := lazy.src.Stats()
	if scans, built, rows := compare(lazy); scans != 1 || built != 0 || rows != selected {
		t.Errorf("cold compare: %d scans, %d cubes built, %d rows counted; want 1, 0, %d", scans, built, rows, selected)
	}
	st := lazy.src.Stats()
	if st.CachedCubes != 0 || st.TwoDBuilds != 0 || st.Evictions != 0 {
		t.Errorf("cold compare left %d pair cubes resident, built %d, evicted %d; want 0, 0, 0", st.CachedCubes, st.TwoDBuilds, st.Evictions)
	}
	if d := st.Misses - st0.Misses; d != int64(len(candidates)) {
		t.Errorf("cold compare counted %d cache misses, want one per candidate (%d)", d, len(candidates))
	}

	// Every cube pinned.
	pinned, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pinned.PinAll(ctx); err != nil {
		t.Fatal(err)
	}
	if scans, built, rows := compare(NewSource(pinned)); scans != 0 || built != 0 || rows != 0 {
		t.Errorf("pinned compare: %d scans, %d cubes built, %d rows counted; want 0, 0, 0", scans, built, rows)
	}

	// A sweep over half the candidates leaves their pair cubes resident.
	warm, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	swept := candidates[:len(candidates)/2]
	if _, err := NewSource(warm).SweepContext(context.Background(), attr, cls, SweepOptions{Compare: Options{Attrs: swept}}); err != nil {
		t.Fatal(err)
	}
	st0 = warm.Stats()
	if scans, built, rows := compare(NewSource(warm)); scans != 1 || built != 0 || rows != selected {
		t.Errorf("compare after a sweep: %d scans, %d cubes built, %d rows counted; want 1, 0, %d", scans, built, rows, selected)
	}
	st = warm.Stats()
	if hits, misses := st.Hits-st0.Hits, st.Misses-st0.Misses; hits != int64(len(swept)) || misses != int64(len(candidates)-len(swept)) {
		t.Errorf("compare after a sweep: %d hits, %d misses; want %d resident reads, %d counted", hits, misses, len(swept), len(candidates)-len(swept))
	}
	if st.CachedCubes != st0.CachedCubes {
		t.Errorf("compare after a sweep changed the resident pair cubes: %d -> %d", st0.CachedCubes, st.CachedCubes)
	}
}

// TestOneVsRestAllSkipsUndefined plants an undefined comparison (every
// side below MinRuleSupport) and checks values are skipped, not fatal.
func TestOneVsRestAllSkipsUndefined(t *testing.T) {
	eager, _, attr, cls := batchSources(t, 5000, 1)
	res, err := eager.OneVsRestAll(attr, cls, OneVsRestAllOptions{
		Compare: Options{MinRuleSupport: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 0 {
		t.Errorf("ranked %d values despite impossible MinRuleSupport", len(res.Results))
	}
	if len(res.Skipped) == 0 {
		t.Error("no values annotated as skipped")
	}
	for _, e := range res.Skipped {
		if e.Err == "" || e.Item == "" {
			t.Errorf("skipped annotation incomplete: %+v", e)
		}
	}
}

// TestRankSelfVsClassDistinct is the satellite bugfix check: an
// explicit candidate list naming the split attribute and one naming the
// class must fail with two distinguishable errors, on every entry
// point.
func TestRankSelfVsClassDistinct(t *testing.T) {
	eager, _, attr, cls := batchSources(t, 5000, 1)
	ds := eager.ds
	classIdx := ds.ClassIndex()
	check := func(name string, run func(opts Options) error) {
		if err := run(Options{Attrs: []int{attr}}); !errors.Is(err, ErrRankSelf) {
			t.Errorf("%s with split attr in Attrs: got %v, want ErrRankSelf", name, err)
		}
		if err := run(Options{Attrs: []int{classIdx}}); !errors.Is(err, ErrRankClass) {
			t.Errorf("%s with class in Attrs: got %v, want ErrRankClass", name, err)
		}
		if err := run(Options{Attrs: []int{classIdx}}); errors.Is(err, ErrRankSelf) {
			t.Errorf("%s: class error must not match ErrRankSelf", name)
		}
	}
	var v2 int32
	if ds.Cardinality(attr) > 1 {
		v2 = 1
	}
	check("Compare", func(opts Options) error {
		_, err := eager.Compare(Input{Attr: attr, V1: 0, V2: v2, Class: cls}, opts)
		return err
	})
	check("OneVsRest", func(opts Options) error {
		_, err := eager.OneVsRest(OneVsRestInput{Attr: attr, Value: 0, Class: cls}, opts)
		return err
	})
	check("OneVsRestAll", func(opts Options) error {
		_, err := eager.OneVsRestAll(attr, cls, OneVsRestAllOptions{Compare: opts})
		return err
	})
}

// TestSweepOptionValidation is the satellite bugfix check for the
// option sanitization: a negative TopK and a NaN MinScore used to be
// accepted and silently empty the aggregation.
func TestSweepOptionValidation(t *testing.T) {
	eager, _, attr, cls := batchSources(t, 5000, 1)
	if _, err := eager.SweepContext(context.Background(), attr, cls, SweepOptions{TopK: -1}); err == nil {
		t.Error("negative TopK accepted")
	}
	if _, err := eager.SweepContext(context.Background(), attr, cls, SweepOptions{MinScore: math.NaN()}); err == nil {
		t.Error("NaN MinScore accepted")
	}
	// A sanity check that valid extremes still work.
	if _, err := eager.SweepContext(context.Background(), attr, cls, SweepOptions{TopK: 1 << 20, MinScore: -1}); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// TestOneVsRestAllValidation covers the request-level errors of the new
// entry point.
func TestOneVsRestAllValidation(t *testing.T) {
	eager, _, attr, cls := batchSources(t, 5000, 1)
	ds := eager.ds
	if _, err := eager.OneVsRestAll(-1, cls, OneVsRestAllOptions{}); err == nil {
		t.Error("negative attribute accepted")
	}
	if _, err := eager.OneVsRestAll(ds.ClassIndex(), cls, OneVsRestAllOptions{}); err == nil {
		t.Error("class as split attribute accepted")
	}
	if _, err := eager.OneVsRestAll(attr, int32(ds.NumClasses()), OneVsRestAllOptions{}); err == nil {
		t.Error("out-of-range class accepted")
	}
	if _, err := eager.OneVsRestAll(attr, cls, OneVsRestAllOptions{Compare: Options{Attrs: []int{99}}}); err == nil {
		t.Error("out-of-range candidate accepted")
	}
}

// FuzzSweepOptions fuzzes the sweep option surface: invalid options
// (negative TopK, NaN MinScore) must error, everything else must run
// the sweep without panicking and return a well-formed aggregate.
func FuzzSweepOptions(f *testing.F) {
	store, gt, ds := buildCaseStudy(f, 4000, 1)
	attr := ds.AttrIndex(gt.PhoneAttr)
	cls, ok := ds.ClassDict().Lookup(gt.DropClass)
	if !ok {
		f.Fatal("ground truth class missing")
	}
	c := NewSource(store)
	f.Add(0, 0.0)
	f.Add(-3, 0.0)
	f.Add(2, math.Inf(1))
	f.Add(1, -1.5)
	f.Fuzz(func(t *testing.T, topK int, minScore float64) {
		opts := SweepOptions{TopK: topK, MinScore: minScore}
		res, err := c.SweepContext(context.Background(), attr, cls, opts)
		if topK < 0 || math.IsNaN(minScore) {
			if err == nil {
				t.Fatalf("invalid options %+v accepted", opts)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid options %+v rejected: %v", opts, err)
		}
		if len(res.Comparisons) != res.PairsCompared || len(res.PairLabels) != res.PairsCompared {
			t.Fatal("comparison bookkeeping inconsistent")
		}
		for _, a := range res.Attributes {
			if a.Pairs <= 0 || a.Pairs > res.PairsCompared {
				t.Fatalf("aggregate %q counts %d pairs of %d compared", a.Name, a.Pairs, res.PairsCompared)
			}
		}
	})
}

// TestSweepBatchContext checks a canceled context fails a batched sweep
// promptly on both strict and partial paths.
func TestSweepBatchContext(t *testing.T) {
	_, lazy, attr, cls := batchSources(t, 5000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lazy.SweepContext(ctx, attr, cls, SweepOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled batched sweep: got %v", err)
	}
}
