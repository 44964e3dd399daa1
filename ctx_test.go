package opmap

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"opmap/internal/faultinject"
	"opmap/internal/testutil"
)

// TestBuildCubesContextCancel is the public-API acceptance check:
// canceling mid-BuildCubes (here while the store build's one counting
// scan is held at its fault site) returns ctx.Err() within 100ms and
// leaks no goroutines.
func TestBuildCubesContextCancel(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	defer faultinject.Reset()
	sess, _, err := CaseStudy(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site:  faultinject.SiteCubeBatch,
		Kind:  faultinject.Delay,
		Delay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sess.BuildCubesContext(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("BuildCubesContext returned %v after cancel, want <= 100ms", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("BuildCubesContext did not return within 2s of cancel")
	}
}

// TestSweepPartialDegrades pins the public degraded-sweep contract:
// with the context gone mid-sweep, SweepPartial returns annotated
// partial results instead of an error, while SweepContext stays strict.
func TestSweepPartialDegrades(t *testing.T) {
	sess, gt, err := CaseStudy(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := sess.SweepContext(ctx, gt.PhoneAttr, gt.DropClass, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("strict SweepContext err = %v, want context.Canceled", err)
	}

	res, err := sess.SweepPartial(ctx, gt.PhoneAttr, gt.DropClass, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("SweepPartial did not mark the result partial")
	}
	if res.PairsCompared != 0 {
		t.Errorf("PairsCompared = %d on a pre-canceled context", res.PairsCompared)
	}
	if len(res.Errors) == 0 {
		t.Error("no skipped pairs annotated")
	}
}

// TestCompareOneVsRestContextPartial exercises the public one-vs-rest
// degradation path end to end.
func TestCompareOneVsRestContextPartial(t *testing.T) {
	sess, gt, err := CaseStudy(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cmp, err := sess.CompareOneVsRestContext(ctx, gt.PhoneAttr, gt.BadPhone, gt.DropClass, CompareOptions{PartialOnDeadline: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Partial {
		t.Error("Partial not set on expired context")
	}
	if len(cmp.Unscored) == 0 {
		t.Error("no unscored attributes annotated")
	}
	for _, ie := range cmp.Unscored {
		if ie.Item == "" || ie.Err == "" {
			t.Errorf("malformed annotation %+v", ie)
		}
	}
}

// TestLoadLimitsPropagate pins that LoadOptions limits reach the CSV
// reader.
func TestLoadLimitsPropagate(t *testing.T) {
	csv := "a,b,class\nx,1,yes\ny,2,no\nz,3,yes\n"
	if _, err := LoadCSV(strings.NewReader(csv), LoadOptions{MaxRows: 2}); err == nil {
		t.Fatal("MaxRows=2 accepted 3 data rows")
	}
	if _, err := LoadCSV(strings.NewReader(csv), LoadOptions{MaxColumns: 2}); err == nil {
		t.Fatal("MaxColumns=2 accepted a 3-column file")
	}
	if _, err := LoadCSV(strings.NewReader(csv), LoadOptions{MaxRecordBytes: 4}); err == nil {
		t.Fatal("MaxRecordBytes=4 accepted a wider record")
	}
	if _, err := LoadCSV(strings.NewReader(csv), LoadOptions{}); err != nil {
		t.Fatalf("zero limits rejected a valid file: %v", err)
	}
}
