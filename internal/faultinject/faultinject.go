// Package faultinject provides deterministic, seedable fault injection
// for the analysis pipeline. Long-running stages (cube counting, sweep
// fan-out, permutation rounds, the GI miner, the serving daemon's
// request path) call Hit/HitContext at named sites; by default the call
// is a single atomic load and does nothing. Tests arm faults — a delay,
// an error, or a panic — at a site to exercise mid-build failures, slow
// stages, cancellation races and the server's panic recovery without
// touching the production code paths.
//
// The registry is process-global on purpose: the whole point is to
// reach sites buried several layers below the code under test. Tests
// that arm faults must disarm them (or call Reset) before returning and
// must not run in parallel with each other.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Named fault points compiled into the pipeline. Each constant is the
// site string the corresponding stage passes to Hit/HitContext.
const (
	// SiteCubeBatch fires once per rulecube.BuildMany call, before the
	// shared scan starts: once per store build, lazy miss or bulk
	// request.
	SiteCubeBatch = "cube.build.batch"
	// SiteCompareAttr fires before each candidate attribute is scored in
	// a comparison (pairwise and one-vs-rest).
	SiteCompareAttr = "compare.attr"
	// SiteSweepPair fires before each screened pair is compared in a
	// sweep.
	SiteSweepPair = "sweep.pair"
	// SiteDrillNode fires before each (node, candidate attribute) pair
	// the drill-down planner scores during a frontier expansion.
	SiteDrillNode = "drill.node"
	// SitePermRound fires before each permutation-test round.
	SitePermRound = "permtest.round"
	// SiteGIAttr fires before each attribute the GI miner processes.
	SiteGIAttr = "gi.attr"
	// SiteServerHandle fires inside the opmapd request path, after the
	// middleware and before the endpoint handler.
	SiteServerHandle = "server.handle"
	// SiteAtomicWriteData fires inside atomicfile.WriteFile before the
	// payload is written to the staging file — an Error fault here
	// simulates a crash mid-write, which must leave the destination
	// untouched.
	SiteAtomicWriteData = "atomicfile.write"
	// SiteAtomicWriteRename fires after the staging file is synced and
	// closed, immediately before the rename — an Error fault here
	// simulates a crash in the narrowest window, after which the old
	// destination must still be intact.
	SiteAtomicWriteRename = "atomicfile.rename"
	// SiteWALAppend fires inside wal.Log.Append before the record bytes
	// are written — an Error fault here simulates a crash before the
	// record reaches the log, so the row must not be acknowledged and
	// the log must stay appendable.
	SiteWALAppend = "wal.append"
	// SiteWALFsync fires after the record bytes are written and before
	// the fsync — the torn-tail window. An Error fault here simulates a
	// crash mid-write: the record may be present but is not durable, the
	// append must not be acknowledged, and recovery must truncate it.
	SiteWALFsync = "wal.fsync"
	// SiteWALReplay fires before each replayed record is handed to the
	// replay callback, so tests can interrupt recovery mid-stream.
	SiteWALReplay = "wal.replay"
)

// ErrInjected is the error returned by an Error fault whose Fault.Err
// is nil. Callers can errors.Is against it to tell injected failures
// from real ones.
var ErrInjected = errors.New("injected failure")

// Kind selects what an armed fault does when it fires.
type Kind uint8

const (
	// Delay sleeps for Fault.Delay (interruptibly under HitContext)
	// before letting the site proceed.
	Delay Kind = iota + 1
	// Error makes the site return Fault.Err (ErrInjected when nil).
	Error
	// Panic makes the site panic. Only arm this at sites whose callers
	// recover (the server middleware does; library call sites do not).
	Panic
)

// Fault describes one fault to arm at a named site.
type Fault struct {
	Site  string
	Kind  Kind
	Delay time.Duration // Delay faults: how long to stall the site
	Err   error         // Error faults: the error to inject (nil = ErrInjected)

	// After skips the first After hits of this fault before it becomes
	// eligible to fire (0 = eligible from the first hit).
	After int
	// Times caps how many times the fault fires (0 = every eligible hit).
	Times int
	// Prob fires the fault on each eligible hit with this probability,
	// drawn from a rand.Rand seeded with Seed, so a given (Prob, Seed)
	// pair reproduces the same firing sequence. Zero means fire on
	// every eligible hit.
	Prob float64
	Seed int64
}

// armed is one registered fault with its firing state.
type armed struct {
	f     Fault
	rng   *rand.Rand // nil unless Prob > 0
	hits  int
	fired int
}

var (
	// active gates the fast path: Hit returns immediately while it is
	// zero, so the disabled cost at every site is one atomic load.
	active atomic.Int32

	mu     sync.Mutex
	sites  = make(map[string][]*armed)
	counts = make(map[string]int64)
)

// Arm registers a fault and returns a function that disarms it. Tests
// should `defer disarm()` (or defer Reset).
func Arm(f Fault) (disarm func(), err error) {
	if f.Site == "" {
		return nil, fmt.Errorf("faultinject: empty site")
	}
	switch f.Kind {
	case Delay, Error, Panic:
	default:
		return nil, fmt.Errorf("faultinject: unknown fault kind %d", f.Kind)
	}
	if f.Prob < 0 || f.Prob > 1 {
		return nil, fmt.Errorf("faultinject: probability %v outside [0,1]", f.Prob)
	}
	a := &armed{f: f}
	if f.Prob > 0 {
		a.rng = rand.New(rand.NewSource(f.Seed))
	}
	mu.Lock()
	sites[f.Site] = append(sites[f.Site], a)
	mu.Unlock()
	active.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			list := sites[f.Site]
			for i, x := range list {
				if x == a {
					sites[f.Site] = append(list[:i], list[i+1:]...)
					break
				}
			}
			mu.Unlock()
			active.Add(-1)
		})
	}, nil
}

// Reset disarms every fault and clears the hit counters.
func Reset() {
	mu.Lock()
	n := 0
	for _, list := range sites {
		n += len(list)
	}
	sites = make(map[string][]*armed)
	counts = make(map[string]int64)
	mu.Unlock()
	active.Add(int32(-n))
}

// Enabled reports whether any fault is armed.
func Enabled() bool { return active.Load() > 0 }

// HitCount returns how many times the site was hit while at least one
// fault (at any site) was armed. Sites are not counted on the disabled
// fast path, so counts are meaningful only during a test window.
func HitCount(site string) int64 {
	mu.Lock()
	defer mu.Unlock()
	return counts[site]
}

// Hit is HitContext with a background context: delays are not
// interruptible.
func Hit(site string) error { return HitContext(context.Background(), site) }

// Check is the per-item check of the pipeline loops (a compare's
// candidates, a sweep's pairs, a drill's frontier nodes, permutation
// rounds): it returns the context's error as soon as the context is
// done, and otherwise passes through the named fault point. It polls
// Done without blocking and reads Err only once Done is closed: a
// cancelable context's Err takes its mutex, Done after its first call
// does not.
func Check(ctx context.Context, site string) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	return HitContext(ctx, site)
}

// HitContext marks one pass through a named fault point. With no fault
// armed it returns nil at the cost of one atomic load. With faults
// armed it applies the first eligible fault for the site: Delay sleeps
// (returning ctx.Err() if ctx expires first), Error returns the
// injected error, Panic panics.
func HitContext(ctx context.Context, site string) error {
	if active.Load() == 0 {
		return nil
	}
	mu.Lock()
	counts[site]++
	var fire *Fault
	for _, a := range sites[site] {
		a.hits++
		if a.hits <= a.f.After {
			continue
		}
		if a.f.Times > 0 && a.fired >= a.f.Times {
			continue
		}
		if a.rng != nil && a.rng.Float64() >= a.f.Prob {
			continue
		}
		a.fired++
		f := a.f
		fire = &f
		break
	}
	mu.Unlock()
	if fire == nil {
		return nil
	}
	switch fire.Kind {
	case Delay:
		t := time.NewTimer(fire.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case Error:
		if fire.Err != nil {
			return fmt.Errorf("faultinject: site %s: %w", site, fire.Err)
		}
		return fmt.Errorf("faultinject: site %s: %w", site, ErrInjected)
	default: // Panic
		panic(fmt.Sprintf("faultinject: injected panic at site %s", site))
	}
}
