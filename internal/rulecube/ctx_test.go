package rulecube

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
	"opmap/internal/testutil"
)

// wideDataset builds a dataset with nAttrs binary attributes plus a
// binary class over the given number of random rows, so the store has
// nAttrs·(nAttrs−1)/2 pair cubes and its one counting scan does
// rows × pairs increments.
func wideDataset(t *testing.T, nAttrs, rows int) *dataset.Dataset {
	t.Helper()
	attrs := make([]dataset.Attribute, nAttrs+1)
	for i := 0; i < nAttrs; i++ {
		attrs[i] = dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical}
	}
	attrs[nAttrs] = dataset.Attribute{Name: "class", Kind: dataset.Categorical}
	b, err := dataset.NewBuilder(dataset.Schema{Attrs: attrs, ClassIndex: nAttrs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= nAttrs; i++ {
		b.WithDict(i, dataset.DictionaryOf("u", "v"))
	}
	rng := rand.New(rand.NewSource(int64(nAttrs*rows + 1)))
	codes := make([]int32, nAttrs+1)
	for j := 0; j < rows; j++ {
		for i := range codes {
			codes[i] = int32(rng.Intn(2))
		}
		if err := b.AddCodedRow(codes, nil); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// buildStore counts every 1-D and pair cube over attrs (nil: every
// attribute) in one BuildMany scan, as the engine's PinAll does.
func buildStore(ctx context.Context, ds *dataset.Dataset, attrs []int) ([]*Cube, error) {
	attrs, err := NormalizeAttrs(ds, attrs)
	if err != nil {
		return nil, err
	}
	return BuildMany(ctx, ds, StoreRequests(attrs))
}

// pollSignalCtx passes every call through to its parent context, but
// its at-th Err poll first cancels the parent and then closes reached,
// so that poll and every later one report context.Canceled. The cancel
// comes from inside the scan that polls, at the same point of the scan
// on every run, whatever the scheduler does. BuildMany polls once
// before planning and then, in every shard, once per dual, dual table
// and scan block, so with at ≥ 3 the cancel lands while the counting
// scan is under way.
type pollSignalCtx struct {
	context.Context
	cancel  context.CancelFunc
	polls   atomic.Int64
	at      int64
	reached chan struct{}
}

func (c *pollSignalCtx) Err() error {
	if c.polls.Add(1) == c.at {
		c.cancel()
		close(c.reached)
	}
	return c.Context.Err()
}

// TestStoreRequestsContextPreCanceled: a canceled context fails the build
// before it counts anything, whatever the scan's parallelism
// (GOMAXPROCS, which sets how many row shards the scan may use).
func TestStoreRequestsContextPreCanceled(t *testing.T) {
	ds := wideDataset(t, 6, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", procs), func(t *testing.T) {
			defer testutil.VerifyNoLeak(t)()
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			store, err := buildStore(ctx, ds, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if store != nil {
				t.Error("canceled build must not return a store")
			}
		})
	}
}

// cancelMidScan cancels a store build from inside its counting scan
// (at the scan's fourth context poll) and checks that the build
// returns ctx.Err() within 100ms, leaves no goroutine behind, and
// never completes the scan.
func cancelMidScan(t *testing.T, procs int) {
	defer testutil.VerifyNoLeak(t)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	// 48 binary attributes pair into 24 duals and 276 dual tables; at
	// these rows and GOMAXPROCS 4 the scan splits into two shards.
	ds := wideDataset(t, 48, 2*batchShardRows+scanBlockRows)
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &pollSignalCtx{Context: parent, cancel: cancel, at: 4, reached: make(chan struct{})}
	scans := obsv.Default().Counter(CubeScansCounterName)
	s0 := scans.Value()

	done := make(chan error, 1)
	go func() {
		_, err := buildStore(ctx, ds, nil)
		done <- err
	}()
	var err error
	select {
	case <-ctx.reached:
		start := time.Now()
		select {
		case err = <-done:
			if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
				t.Errorf("build returned %v after cancel, want <= 100ms", elapsed)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("build did not return within 2s of cancel")
		}
	case err = <-done:
		// The cancel comes from inside the build, which may return
		// before this goroutine sees reached: only a build that never
		// reached the cancel point fails here.
		select {
		case <-ctx.reached:
		default:
			t.Fatalf("build returned %v before its scan reached the cancel point", err)
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if d := scans.Value() - s0; d != 0 {
		t.Errorf("scan counter advanced by %d: the canceled scan completed", d)
	}
}

// TestStoreRequestsContextCancelMidBuild is the acceptance check on
// the sharded scan: with GOMAXPROCS 4 the rows split across shards, and
// a cancel mid-scan stops every shard at its next block.
func TestStoreRequestsContextCancelMidBuild(t *testing.T) { cancelMidScan(t, 4) }

// TestStoreRequestsContextSerialCancel is the same check on the
// single-shard scan (GOMAXPROCS 1).
func TestStoreRequestsContextSerialCancel(t *testing.T) { cancelMidScan(t, 1) }

// TestStoreRequestsContextFaultError proves an injected error at the
// counting scan's fault site fails the store build cleanly.
func TestStoreRequestsContextFaultError(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	defer faultinject.Reset()
	ds := wideDataset(t, 8, 64)
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site:  faultinject.SiteCubeBatch,
		Kind:  faultinject.Error,
		Times: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	h0 := faultinject.HitCount(faultinject.SiteCubeBatch)
	store, err := buildStore(context.Background(), ds, nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if store != nil {
		t.Error("failed build must not return a store")
	}
	if hits := faultinject.HitCount(faultinject.SiteCubeBatch) - h0; hits != 1 {
		t.Errorf("fault site hit %d times, want 1: a store build is one scan", hits)
	}
}

// TestStoreRequestsContextFaultOneD: a store of 1-D cubes only (one
// attribute, so no pairs) is counted by the same scan and fails at the
// same site.
func TestStoreRequestsContextFaultOneD(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	defer faultinject.Reset()
	ds := wideDataset(t, 4, 64)
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site: faultinject.SiteCubeBatch,
		Kind: faultinject.Error,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	if _, err := buildStore(context.Background(), ds, []int{0}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// TestStoreRequestsContextUnchanged pins backward compatibility: a
// store build under a background context equals the context-free
// builds of the same cubes.
func TestStoreRequestsContextUnchanged(t *testing.T) {
	ds := wideDataset(t, 5, 64)
	ctxed, err := buildStore(context.Background(), ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := NormalizeAttrs(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := StoreRequests(attrs)
	if len(ctxed) != len(reqs) {
		t.Fatalf("cube counts differ: %d vs %d", len(ctxed), len(reqs))
	}
	for i, attrs := range reqs {
		plain, err := Build(ds, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, ctxed[i]) {
			t.Errorf("cube %v differs from its context-free build", attrs)
		}
	}
}
