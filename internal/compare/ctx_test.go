package compare

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"opmap/internal/faultinject"
	"opmap/internal/testutil"
)

func TestCompareContextPreCanceled(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 4000, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewSource(store).CompareContext(ctx, inputFor(t, ds, gt), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCompareContextFaultError(t *testing.T) {
	defer faultinject.Reset()
	store, gt, ds := buildCaseStudy(t, 4000, 6)
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site: faultinject.SiteCompareAttr,
		Kind: faultinject.Error,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	if _, err := NewSource(store).CompareContext(context.Background(), inputFor(t, ds, gt), Options{}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// TestSweepContextStrictFaultFailsWithPairLabel pins the strict-mode
// contract: a failing pair fails the sweep with the pair named, so a
// deadline is attributable to a specific comparison.
func TestSweepContextStrictFaultFailsWithPairLabel(t *testing.T) {
	defer faultinject.Reset()
	store, gt, ds := buildCaseStudy(t, 4000, 6)
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site: faultinject.SiteSweepPair,
		Kind: faultinject.Error,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	attr := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	_, err = NewSource(store).SweepContext(context.Background(), attr, cls, SweepOptions{})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "sweep pair") {
		t.Errorf("strict sweep error %q does not name the failing pair", err)
	}
}

// TestSweepContextPartialAnnotatesAndContinues: in partial mode a
// single failing pair is annotated in Errors and the remaining pairs
// still compare.
func TestSweepContextPartialAnnotatesAndContinues(t *testing.T) {
	defer faultinject.Reset()
	store, gt, ds := buildCaseStudy(t, 4000, 6)
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site:  faultinject.SiteSweepPair,
		Kind:  faultinject.Error,
		Times: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	attr := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	// Loosen the screen so several pairs survive: the test needs at
	// least one pair after the injected failure.
	screen := ScreenOptions{MinSupport: 1, MinZ: 0.001}
	cmp := NewSource(store)
	pairs, err := cmp.ScreenPairs(attr, cls, screen)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) < 2 {
		t.Fatalf("fixture yields %d screened pairs, need >= 2", len(pairs))
	}
	res, err := cmp.SweepContext(context.Background(), attr, cls, SweepOptions{Partial: true, Screen: screen})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("Partial not set despite an annotated pair")
	}
	if len(res.Errors) != 1 {
		t.Fatalf("Errors = %v, want exactly the one injected pair", res.Errors)
	}
	if !strings.Contains(res.Errors[0].Err, faultinject.ErrInjected.Error()) {
		t.Errorf("annotation %q does not carry the injected error", res.Errors[0].Err)
	}
	if res.PairsCompared == 0 {
		t.Error("no pairs compared after the injected failure; partial mode must continue")
	}
}

// TestSweepContextPartialDeadline: with the context already gone,
// partial mode returns an empty-but-well-formed result annotating
// every comparable pair instead of an error.
func TestSweepContextPartialDeadline(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 4000, 6)
	attr := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewSource(store).SweepContext(ctx, attr, cls, SweepOptions{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("Partial not set on expired context")
	}
	if res.PairsCompared != 0 {
		t.Errorf("PairsCompared = %d on a pre-canceled context", res.PairsCompared)
	}
	if len(res.Errors) == 0 {
		t.Fatal("no pairs annotated")
	}
	for _, e := range res.Errors {
		if !strings.Contains(e.Err, context.Canceled.Error()) {
			t.Errorf("annotation %q does not mention cancellation", e.Err)
		}
	}
}

// TestSweepContextCancelMidSweep is the bounded-return acceptance test
// for sweeps: cancel during a stalled pair and SweepContext must
// return ctx.Err() within 100ms.
func TestSweepContextCancelMidSweep(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	defer faultinject.Reset()
	store, gt, ds := buildCaseStudy(t, 4000, 6)
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site:  faultinject.SiteSweepPair,
		Kind:  faultinject.Delay,
		Delay: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	attr := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := NewSource(store).SweepContext(ctx, attr, cls, SweepOptions{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // land inside the stalled pair
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("sweep returned %v after cancel, want <= 100ms", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sweep did not return within 2s of cancel")
	}
}

// TestOneVsRestContextPartial: an expired context with
// PartialOnDeadline yields a degraded result with every candidate
// attribute annotated instead of an error.
func TestOneVsRestContextPartial(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 4000, 6)
	in := inputFor(t, ds, gt)
	ovr := OneVsRestInput{Attr: in.Attr, Value: in.V1, Class: in.Class}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// Strict mode: the cancellation is an error.
	if _, err := NewSource(store).OneVsRestContext(ctx, ovr, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("strict err = %v, want context.Canceled", err)
	}

	res, err := NewSource(store).OneVsRestContext(ctx, ovr, Options{PartialOnDeadline: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("Partial not set on expired context")
	}
	if len(res.Ranked) != 0 {
		t.Errorf("Ranked has %d entries on a pre-canceled context", len(res.Ranked))
	}
	want := ds.NumAttrs() - 2 // all but the comparison attribute and the class
	if len(res.Unscored) != want {
		t.Errorf("Unscored = %d attributes, want %d", len(res.Unscored), want)
	}
}

func TestPermutationTestContextPreCanceled(t *testing.T) {
	_, gt, ds := buildCaseStudy(t, 4000, 6)
	in := inputFor(t, ds, gt)
	attr := ds.AttrIndex(gt.DistinguishingAttr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PermutationTestContext(ctx, ds, in, attr, 50, 7, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPermutationTestCancelBeforeFirstRound cancels the test from
// inside its observed scan's pass or its pool's walk, at every context
// poll in turn: each returns context.Canceled, and no permutation round
// runs (a round would poll Done first).
func TestPermutationTestCancelBeforeFirstRound(t *testing.T) {
	_, gt, ds := buildCaseStudy(t, 10000, 2)
	in := inputFor(t, ds, gt)
	attr := ds.AttrIndex(gt.DistinguishingAttr)
	at := 1
	for ; ; at++ {
		parent, cancel := context.WithCancel(context.Background())
		ctx := &cancelAtPoll{Context: parent, cancel: cancel, at: at}
		_, err := PermutationTestContext(ctx, ds, in, attr, 10, 1, Options{})
		cancel()
		if ctx.polls < at {
			if err != nil {
				t.Fatalf("uncanceled test: %v", err)
			}
			break // every poll before the first round was tried
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled at poll %d: err = %v, want context.Canceled", at, err)
		}
		if ctx.dones != 0 {
			t.Errorf("canceled at poll %d: %d permutation rounds ran", at, ctx.dones)
		}
	}
	// The scan polls once per block and once for its one candidate, the
	// walk once per block.
	if blocks := (ds.NumRows() + 2047) / 2048; at-1 != 2*blocks+1 {
		t.Errorf("the test polled its context %d times before its rounds, want %d", at-1, 2*blocks+1)
	}
}

// cancelAtPoll cancels its parent at its at-th Err poll and counts its
// Done polls.
type cancelAtPoll struct {
	context.Context
	cancel       context.CancelFunc
	polls, dones int
	at           int
}

func (c *cancelAtPoll) Err() error {
	if c.polls++; c.polls == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

func (c *cancelAtPoll) Done() <-chan struct{} {
	c.dones++
	return c.Context.Done()
}
