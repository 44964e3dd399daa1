package main

import (
	"math/rand"
	"sort"
	"time"
)

// The host's CPU speed is not constant. On a shared machine the
// benchmark's thread switches between a fast state and one about 1.8
// times slower, and the share of time spent slow moves from run to run
// with the neighbours' load: identical runs minutes apart differed by
// up to 2x in raw latency. The canary measures that speed. It is a
// fixed counting kernel shaped like the engine's inner loop (two
// six-valued int32 columns and a three-valued class tallied into a
// small table) that shares no code with the program. Its units sample
// a phase evenly in time, and every timing the benchmark reports is
// scaled to the reference speed: raw × canaryRef / mean unit time.
const (
	canaryRows  = 1 << 16
	canaryEvery = 10 * time.Millisecond
	// canaryRef is the reference unit time in seconds. It fixes the
	// scale of every reported timing: on a host whose units take
	// canaryRef, reported and raw timings agree.
	canaryRef = 65e-6
	// canaryWindow is how far around a request the units that set its
	// speed may lie. The host's state holds for some hundred
	// milliseconds at a time, so nearby units saw the state the request
	// ran in.
	canaryWindow = 50 * time.Millisecond
	// canaryOutlier: a unit that took this many times the phase's
	// median was interrupted (its thread descheduled, or its P lent to
	// a GC worker) rather than slowed by the host's state, which moves
	// unit time by about 1.8x at most. Such units are left out of every
	// speed; one 10 ms interruption would otherwise halve a set-up's.
	canaryOutlier = 3
	// canaryCatchUp bounds the units one tick runs.
	canaryCatchUp = 8
)

type canary struct {
	a, b, c []int32
	cells   [6 * 6 * 3]int64
	total   time.Duration // time spent in units, outliers included
	last    time.Time
	marks   []mark        // every unit of the phase, in time order
	limit   time.Duration // outlier limit, fixed at the first speed query
}

// mark is one canary unit: when it ended and how long it took.
type mark struct {
	at time.Time
	d  time.Duration
}

func newCanary() *canary {
	rng := rand.New(rand.NewSource(1))
	k := &canary{a: make([]int32, canaryRows), b: make([]int32, canaryRows), c: make([]int32, canaryRows)}
	for i := range k.a {
		k.a[i], k.b[i], k.c[i] = int32(rng.Intn(6)), int32(rng.Intn(6)), int32(rng.Intn(3))
	}
	return k
}

// reset starts a new phase.
func (k *canary) reset() { k.total, k.last, k.marks, k.limit = 0, time.Time{}, k.marks[:0], 0 }

func (k *canary) count() {
	for i, a := range k.a {
		k.cells[(a*6+k.b[i])*3+k.c[i]]++
	}
}

// unit counts the columns twice and times the second pass only: the
// first brings them back into the caches the program's work evicted,
// so the unit measures the host's speed and not the program's memory
// footprint.
func (k *canary) unit() {
	start := time.Now()
	k.count()
	t0 := time.Now()
	k.count()
	k.last = time.Now()
	k.total += k.last.Sub(start)
	k.marks = append(k.marks, mark{k.last, k.last.Sub(t0)})
}

// tick runs one unit per canaryEvery elapsed since the last one, at
// most canaryCatchUp, so a long request is followed by as many units as
// a stretch of short ones. The client calls it between requests, so no
// request is timed with a unit inside it.
func (k *canary) tick() {
	n := min(int(time.Since(k.last)/canaryEvery), canaryCatchUp)
	for i := 0; i < n; i++ {
		k.unit()
	}
}

// background runs a unit every canaryEvery on its own goroutine until
// the returned stop is called; stop returns once the goroutine has
// exited. With one P the units interleave with a long call such as the
// set-up, at the scheduler's preemption points.
func (k *canary) background() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(canaryEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				k.unit()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// speed is the reference unit time over the phase's mean, outliers
// left out: below 1 when the host ran slower than the reference. It is
// queried once the phase has ended.
func (k *canary) speed() float64 { return k.speedOf(k.marks) }

// speedAround is the speed of the units within canaryWindow of the
// interval [from, to], or of the nearest unit when none is.
func (k *canary) speedAround(from, to time.Time) float64 {
	lo := sort.Search(len(k.marks), func(i int) bool { return !k.marks[i].at.Before(from.Add(-canaryWindow)) })
	hi := lo
	for hi < len(k.marks) && !k.marks[hi].at.After(to.Add(canaryWindow)) {
		hi++
	}
	switch {
	case lo < hi:
	case lo == len(k.marks) && lo > 0:
		lo--
	case lo < len(k.marks):
		hi++
	}
	return k.speedOf(k.marks[lo:hi])
}

// speedOf is the speed over the non-outlier units of ms; the phase's
// speed when all are outliers, and 1 when the phase ran no units.
func (k *canary) speedOf(ms []mark) float64 {
	if len(k.marks) == 0 {
		return 1
	}
	if k.limit == 0 {
		ds := make([]time.Duration, len(k.marks))
		for i, m := range k.marks {
			ds[i] = m.d
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		k.limit = canaryOutlier * ds[len(ds)/2]
	}
	var sum time.Duration
	n := 0
	for _, m := range ms {
		if m.d <= k.limit {
			sum += m.d
			n++
		}
	}
	if n == 0 {
		return k.speed()
	}
	return canaryRef / (sum.Seconds() / float64(n))
}
