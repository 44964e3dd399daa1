package gi

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/faultinject"
)

// pinnedSource counts every 1-D and pair cube of ds and pins them, the
// engine an eager session serves.
func pinnedSource(t *testing.T, ds *dataset.Dataset) *engine.LazySource {
	t.Helper()
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.PinAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return src
}

func TestMineAllContextPreCanceled(t *testing.T) {
	src := pinnedSource(t, trendDataset(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineAllSource(ctx, src, TrendOptions{}, ExceptionOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MineAllSource err = %v, want context.Canceled", err)
	}
	if _, err := InfluentialAttributesSource(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("InfluentialAttributesSource err = %v, want context.Canceled", err)
	}
}

func TestMineAllContextFaultError(t *testing.T) {
	defer faultinject.Reset()
	src := pinnedSource(t, trendDataset(t))
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site: faultinject.SiteGIAttr,
		Kind: faultinject.Error,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	if _, err := MineAllSource(context.Background(), src, TrendOptions{}, ExceptionOptions{}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// TestMineAllContextUnchanged pins that the report does not depend on
// the engine mode: a cold lazy engine, which counts each 1-D cube on
// first touch, mines the pinned engine's report.
func TestMineAllContextUnchanged(t *testing.T) {
	ds := trendDataset(t)
	pinned, err := MineAllSource(context.Background(), pinnedSource(t, ds), TrendOptions{}, ExceptionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineAllSource(context.Background(), lazy, TrendOptions{}, ExceptionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned.Trends) == 0 || !reflect.DeepEqual(pinned, got) {
		t.Errorf("lazy report %+v differs from the pinned one %+v", got, pinned)
	}
}
