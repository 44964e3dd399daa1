package drill

import (
	"context"
	"errors"
	"testing"
	"time"

	"opmap/internal/compare"
	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/faultinject"
	"opmap/internal/workload"
)

// drillFixture builds the planted two-condition workload and the
// oriented comparison input for its good-vs-bad phone pair.
func drillFixture(t *testing.T) (*dataset.Dataset, workload.DrillTruth, compare.Input) {
	t.Helper()
	ds, gt, err := workload.DrillLog(workload.DrillLogConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	attr := ds.AttrIndex(gt.PhoneAttr)
	if attr < 0 {
		t.Fatalf("attribute %q missing", gt.PhoneAttr)
	}
	dict := ds.Column(attr).Dict
	v1, ok1 := dict.Lookup(gt.GoodPhone)
	v2, ok2 := dict.Lookup(gt.BadPhone)
	class, ok3 := ds.Column(ds.ClassIndex()).Dict.Lookup(gt.DropClass)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("ground-truth labels not in dictionaries")
	}
	return ds, gt, compare.Input{Attr: attr, V1: v1, V2: v2, Class: class}
}

// condSet extracts the finding's conditions as name=label pairs,
// order-independent.
func condSet(f Finding) map[string]string {
	m := make(map[string]string, len(f.Conds))
	for _, c := range f.Conds {
		m[c.Name] = c.Label
	}
	return m
}

// TestDrillRecoversPlantedPair is the headline acceptance check: the
// planted (Terrain, Signal-Band) conjunction must rank first in the
// drill-down while the one-condition root ranking surfaces the decoy
// attribute instead.
func TestDrillRecoversPlantedPair(t *testing.T) {
	ds, gt, in := drillFixture(t)
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(src).DrillContext(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("unexpected partial result: %+v", res.Unexplored)
	}

	// The 1-D comparison must NOT surface the joint pair: its top
	// attribute is the planted decoy.
	if len(res.Root.Ranked) == 0 {
		t.Fatal("root ranking is empty")
	}
	if got := res.Root.Ranked[0].Name; got != gt.SurfaceAttr {
		t.Fatalf("root ranking surfaces %q, want decoy %q", got, gt.SurfaceAttr)
	}
	for _, name := range []string{gt.JointAttrA, gt.JointAttrB} {
		if res.Root.Ranked[0].Name == name {
			t.Fatalf("joint attribute %q already tops the 1-D ranking; the plant is not conditional", name)
		}
	}

	// The drill-down's top finding must be exactly the planted pair.
	if len(res.Findings) == 0 {
		t.Fatal("no findings")
	}
	top := res.Findings[0]
	if top.Depth != 2 {
		t.Fatalf("top finding depth = %d (%s), want 2", top.Depth, top.Label())
	}
	want := map[string]string{gt.JointAttrA: gt.JointValueA, gt.JointAttrB: gt.JointValueB}
	got := condSet(top)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("top finding %s, want %s=%s ∧ %s=%s", top.Label(), gt.JointAttrA, gt.JointValueA, gt.JointAttrB, gt.JointValueB)
		}
	}

	// And it must outrank every one-condition finding by a clear margin.
	for _, f := range res.Findings[1:] {
		if f.Depth == 1 && f.Score >= top.Score {
			t.Fatalf("depth-1 finding %s (score %v) not below the pair (score %v)", f.Label(), f.Score, top.Score)
		}
	}
	if top.Cf2 <= top.Cf1 {
		t.Fatalf("pair cell confidences not oriented: cf1=%v cf2=%v", top.Cf1, top.Cf2)
	}
}

// TestDrillEagerMatchesLazy drills the same input through a source
// with every pair cube pinned up front and a lazy one, and requires
// identical findings.
func TestDrillEagerMatchesLazy(t *testing.T) {
	ds, _, in := drillFixture(t)
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{})
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
	opts := Options{MaxDepth: 2, Beam: 4}
	a, err := New(lazy).DrillContext(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(eager).DrillContext(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("lazy found %d findings, eager %d", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		fa, fb := a.Findings[i], b.Findings[i]
		if fa.Label() != fb.Label() || fa.Score != fb.Score || fa.N2 != fb.N2 || fa.C2 != fb.C2 {
			t.Fatalf("finding %d differs: lazy %s (%v), eager %s (%v)", i, fa.Label(), fa.Score, fb.Label(), fb.Score)
		}
	}
}

// TestMeasureByName exercises the measure registry.
func TestMeasureByName(t *testing.T) {
	for name, want := range map[string]string{
		"":           "paper",
		"paper":      "paper",
		"M":          "paper",
		"lift":       "lift",
		"Conviction": "conviction",
	} {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m.Name() != want {
			t.Errorf("ByName(%q) = %q, want %q", name, m.Name(), want)
		}
	}
	if _, err := ByName("chi-squared"); err == nil {
		t.Error("unknown measure accepted")
	}
}

// TestMeasureScores spot-checks the three measures on a hot cell (D2
// confidence far beyond expectation) and a proportional cell (exactly
// at expectation).
func TestMeasureScores(t *testing.T) {
	hot := Stats{N1: 100, C1: 5, N2: 100, C2: 80, Cf1: 0.05, Cf2: 0.8, RCf1: 0.07, RCf2: 0.75, Ratio: 2}
	flat := Stats{N1: 100, C1: 5, N2: 100, C2: 10, Cf1: 0.05, Cf2: 0.1, RCf1: 0.05, RCf2: 0.1, Ratio: 2}
	for _, m := range []Measure{PaperM{}, Lift{}, Conviction{}} {
		if s := m.Score(hot); s <= 0 {
			t.Errorf("%s: hot cell scored %v, want > 0", m.Name(), s)
		}
		if s := m.Score(flat); s != 0 {
			t.Errorf("%s: proportional cell scored %v, want 0", m.Name(), s)
		}
	}
	// A deterministic cell must not produce Inf (JSON-unmarshalable).
	sure := Stats{N2: 50, C2: 50, RCf1: 0.1, RCf2: 1.0, Ratio: 2}
	if s := (Conviction{}).Score(sure); s <= 0 || s > 1e12 {
		t.Errorf("conviction of deterministic cell = %v, want finite positive", s)
	}
}

// TestDrillNodeBudget caps MaxNodes far below the candidate count and
// expects a truncated, partial result.
func TestDrillNodeBudget(t *testing.T) {
	ds, _, in := drillFixture(t)
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(src).DrillContext(context.Background(), in, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("budget-capped run not marked partial")
	}
	if len(res.Unexplored) == 0 {
		t.Fatal("budget-capped run lists nothing unexplored")
	}
	if len(res.Findings) > 1 {
		t.Fatalf("budget 1 produced %d findings", len(res.Findings))
	}
}

// TestDrillPartialOnDeadline injects a context failure mid-frontier:
// strict mode fails, degraded mode returns the findings so far with
// the rest annotated.
func TestDrillPartialOnDeadline(t *testing.T) {
	ds, _, in := drillFixture(t)
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	arm := func() func() {
		disarm, err := faultinject.Arm(faultinject.Fault{
			Site: faultinject.SiteDrillNode,
			Kind: faultinject.Error,
			Err:  context.DeadlineExceeded,
		})
		if err != nil {
			t.Fatal(err)
		}
		return disarm
	}

	disarm := arm()
	_, err = New(src).DrillContext(context.Background(), in, Options{})
	disarm()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("strict run: err = %v, want DeadlineExceeded", err)
	}

	// The injected error is not a *context* expiry, so PartialOnDeadline
	// alone must not degrade: only a genuinely expired context does.
	disarm = arm()
	_, err = New(src).DrillContext(context.Background(), in, Options{PartialOnDeadline: true})
	disarm()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("injected-error run: err = %v, want DeadlineExceeded", err)
	}

	// A Delay fault at the first frontier node outlasts the context
	// deadline; HitContext returns the context's error, and the
	// degraded run keeps its depth-1 findings with the frontier
	// annotated as unexplored.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	disarm, ferr := faultinject.Arm(faultinject.Fault{
		Site:  faultinject.SiteDrillNode,
		Kind:  faultinject.Delay,
		Delay: time.Minute,
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer disarm()
	res, err := New(src).DrillContext(ctx, in, Options{PartialOnDeadline: true})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !res.Partial {
		t.Fatal("degraded run not marked partial")
	}
	if len(res.Unexplored) == 0 {
		t.Fatal("degraded run lists nothing unexplored")
	}
	for _, f := range res.Findings {
		if f.Depth != 1 {
			t.Fatalf("degraded run produced depth-%d finding %s before any expansion", f.Depth, f.Label())
		}
	}
}
