package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"opmap/internal/dataset"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
)

// DefaultCacheBytes is the budget of the unpinned cubes when
// LazyOptions leaves CacheBytes zero: 64 MiB ≈ 8M cells, far beyond
// the working set Smart Drill-Down-style exploration touches, small
// next to an all-pairs store on a wide schema.
const DefaultCacheBytes = 64 << 20

// cubeKey identifies a cube by its sorted condition-dimension list:
// "3" for the 1-D cube of attribute 3, "3,7" for a pair, and "1,3,7"
// for a 3-condition drill-down cube. Requests over the same attribute
// set in any order share one key.
type cubeKey string

// keyOf builds the key of a normalized (sorted) attribute list.
func keyOf(attrs []int) cubeKey {
	b := make([]byte, 0, len(attrs)*4)
	for i, a := range attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(a), 10)
	}
	return cubeKey(b)
}

// LazyOptions configures a LazySource.
type LazyOptions struct {
	// Attrs restricts the servable attributes (class excluded
	// automatically). Nil means all non-class attributes.
	Attrs []int
	// CacheBytes is the byte budget of the unpinned cubes: the pair
	// cubes of a source that has not pinned them, and every k ≥ 3
	// drill-down cube. Zero means DefaultCacheBytes; negative means
	// unlimited.
	CacheBytes int64
}

// LazyStats is a point-in-time snapshot of a LazySource's counters,
// used by tests and the Session.EngineStats API. Global obsv metrics
// advance in lockstep.
type LazyStats struct {
	// OneDBuilds / TwoDBuilds count completed cube materializations,
	// TwoDBuilds every arity above one.
	OneDBuilds, TwoDBuilds int64
	// Hits / Misses count k ≥ 2 lookups; Evictions counts cubes dropped
	// to satisfy the byte budget.
	Hits, Misses, Evictions int64
	// CachedBytes / CachedCubes describe the unpinned resident cubes the
	// budget governs; Pinned counts the pinned ones (every 1-D cube,
	// and every pair cube once PinAll or Pin pinned them).
	CachedBytes         int64
	CachedCubes, Pinned int
}

// entry is one resident cube. Pinned entries never evict and are not
// charged to the budget; eviction drops the unpinned entry with the
// smallest use stamp — the least recently used.
type entry struct {
	cube   *rulecube.Cube
	size   int64
	pinned bool
	slot   int     // index in LazySource.slots; -1: in LazySource.nd under key
	key    cubeKey // k ≥ 3 entries only
	lru    int     // index in LazySource.lru; -1 when pinned
	used   atomic.Int64
}

// flight is an in-progress cube build. The leader closes done after
// publishing cube/err; followers wait on done or their own context.
type flight struct {
	done chan struct{}
	cube *rulecube.Cube
	err  error
}

// LazySource is the cube engine: one cache that materializes a missing
// cube on first use. 1-D cubes are pinned once built; PinAll pins every
// pair cube up front (the paper's offline precomputation) and Pin an
// already-counted store's. Every other cube — lazy pairs and
// drill-down k ≥ 3 cubes — is charged to one byte budget and evicted
// least recently used. A 1-D or pair hit takes no lock and
// allocates nothing. Concurrent first-touch requests for one cube
// collapse into a single build (per-key singleflight); build errors
// reach every waiter but are never cached. Safe for concurrent use.
type LazySource struct {
	ds    *dataset.Dataset
	attrs []int
	pos   []int // pos[a]: a's position in attrs, -1 when a is not served

	budget int64           // <0 = unlimited
	store  *rulecube.Store // the pinned 1-D and pair cubes, if all are pinned

	// obsv handles, resolved once so a hit never looks one up by name.
	hitsC, missesC, evictionsC *obsv.Counter
	bytesG                     *obsv.Gauge
	lazyH, batchH              *obsv.Histogram

	// slots[i] holds attrs[i]'s 1-D cube and slots[n+i*n+j] (i < j) the
	// pair cube of attrs[i] and attrs[j]; writers hold mu.
	slots []atomic.Pointer[entry]
	tick  atomic.Int64 // use-stamp clock

	mu      sync.Mutex
	nd      map[cubeKey]*entry // resident k ≥ 3 cubes
	lru     []*entry           // resident unpinned entries, in no order
	bytes   int64              // sum of the unpinned entries' sizes
	pinned  int
	flights map[cubeKey]*flight

	oneDBuilds, twoDBuilds, hits, misses, evictions atomic.Int64
}

// NewLazy creates a lazy source over ds. The dataset must be fully
// categorical (discretize first), mirroring rulecube.BuildStore.
func NewLazy(ds *dataset.Dataset, opts LazyOptions) (*LazySource, error) {
	if ds == nil {
		return nil, fmt.Errorf("engine: nil dataset")
	}
	if !ds.AllCategorical() {
		return nil, fmt.Errorf("engine: dataset has continuous attributes; discretize first")
	}
	attrs, err := rulecube.NormalizeAttrs(ds, opts.Attrs)
	if err != nil {
		return nil, err
	}
	budget := opts.CacheBytes
	if budget == 0 {
		budget = DefaultCacheBytes
	}
	return newSource(ds, attrs, budget), nil
}

// newSource allocates an empty source over a validated, sorted
// attribute list.
func newSource(ds *dataset.Dataset, attrs []int, budget int64) *LazySource {
	n, reg := len(attrs), obsv.Default()
	s := &LazySource{
		ds:         ds,
		attrs:      attrs,
		pos:        make([]int, ds.NumAttrs()),
		budget:     budget,
		hitsC:      reg.Counter(CubeCacheHitsCounterName),
		missesC:    reg.Counter(CubeCacheMissesCounterName),
		evictionsC: reg.Counter(CubeCacheEvictionsCounterName),
		bytesG:     reg.Gauge(CubeCacheBytesGaugeName),
		lazyH:      reg.Histogram(LazyBuildHistogramName, nil),
		batchH:     reg.Histogram(BatchBuildHistogramName, nil),
		slots:      make([]atomic.Pointer[entry], n+n*n),
		nd:         make(map[cubeKey]*entry),
		flights:    make(map[cubeKey]*flight),
	}
	for a := range s.pos {
		s.pos[a] = -1
	}
	for i, a := range attrs {
		s.pos[a] = i
	}
	return s
}

// FromStore serves an already-counted store (a caller's BuildStore)
// with every cube pinned and the default budget; Store returns store
// itself. Cubes the store lacks are counted over its dataset.
func FromStore(store *rulecube.Store) *LazySource {
	s := newSource(store.Dataset(), store.Attrs(), DefaultCacheBytes)
	s.store = store
	s.pin(store)
	return s
}

// PinAll counts every 1-D and pair cube in one shared scan (what
// rulecube.BuildStoreContext counts) and pins them: never evicted, not
// charged to the budget, returned by Store. Build counters advance, hit
// and miss counters do not. Call it before the source is shared.
func (s *LazySource) PinAll(ctx context.Context) error {
	store, err := rulecube.BuildStoreContext(ctx, s.ds, rulecube.StoreOptions{Attrs: s.attrs})
	if err != nil {
		return err
	}
	n := int64(len(s.attrs))
	s.oneDBuilds.Add(n)
	s.twoDBuilds.Add(n * (n - 1) / 2)
	s.store = store
	s.pin(store)
	return nil
}

// Pin pins a store counted elsewhere (a session snapshot's) as PinAll
// would have counted it: the store must be over the source's dataset
// and served attributes. Build counters do not advance. Call it before
// the source is shared.
func (s *LazySource) Pin(store *rulecube.Store) error {
	if store.Dataset() != s.ds || !slices.Equal(store.Attrs(), s.attrs) {
		return fmt.Errorf("engine: pinned store must cover the source's dataset and attributes")
	}
	s.store = store
	s.pin(store)
	return nil
}

// pin installs every cube of store, a store over the served
// attributes, as a pinned entry, replacing whatever occupied its slot.
func (s *LazySource) pin(store *rulecube.Store) {
	n := len(s.attrs)
	slab := make([]entry, store.CubeCount())
	s.mu.Lock()
	defer s.mu.Unlock()
	for slot := range s.slots {
		var c *rulecube.Cube
		if i, j := (slot-n)/n, (slot-n)%n; slot < n {
			c = store.Cube1(s.attrs[slot])
		} else if i < j {
			c = store.Cube2(s.attrs[i], s.attrs[j])
		}
		if c == nil {
			continue
		}
		if old := s.slots[slot].Load(); old != nil {
			s.unlinkLocked(old)
		}
		s.insertLocked(batchItem{attrs: c.AttrIndices(), slot: slot}, c, &slab[0], true)
		slab = slab[1:]
	}
}

// Dataset returns the (discretized) dataset the cubes are counted over.
func (s *LazySource) Dataset() *dataset.Dataset { return s.ds }

// Attrs returns the servable attribute indices in ascending order;
// callers must not modify the slice.
func (s *LazySource) Attrs() []int { return s.attrs }

// Store returns the pinned 1-D and pair cubes as one rulecube.Store —
// the cubes themselves, not a copy — for whole-store operations; nil
// unless PinAll, Pin or FromStore pinned them.
func (s *LazySource) Store() *rulecube.Store { return s.store }

// Budget returns the configured byte budget of the unpinned cubes
// (negative means unlimited) — recorded in session snapshots so a warm
// start can restore the same engine configuration.
func (s *LazySource) Budget() int64 { return s.budget }

// Stats snapshots the source's counters.
func (s *LazySource) Stats() LazyStats {
	s.mu.Lock()
	cachedBytes, cachedCubes, pinned := s.bytes, len(s.lru), s.pinned
	s.mu.Unlock()
	return LazyStats{
		OneDBuilds:  s.oneDBuilds.Load(),
		TwoDBuilds:  s.twoDBuilds.Load(),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Evictions:   s.evictions.Load(),
		CachedBytes: cachedBytes,
		CachedCubes: cachedCubes,
		Pinned:      pinned,
	}
}

// slot returns the slots index of a 1-D or pair request in any order
// without allocating, or -1 (k ≥ 3, or not servable: the slow path
// says why).
func (s *LazySource) slot(attrs []int) int {
	posOf := func(a int) int {
		if uint(a) >= uint(len(s.pos)) {
			return -1
		}
		return s.pos[a]
	}
	switch len(attrs) {
	case 1:
		return posOf(attrs[0])
	case 2:
		i, j := posOf(attrs[0]), posOf(attrs[1])
		if i < 0 || j < 0 || i == j {
			return -1
		}
		if i > j {
			i, j = j, i
		}
		n := len(s.attrs)
		return n + i*n + j
	}
	return -1
}

// slotHit returns the resident 1-D or pair cube of a request, stamping
// its use, or nil. It takes no lock.
func (s *LazySource) slotHit(attrs []int) *rulecube.Cube {
	i := s.slot(attrs)
	if i < 0 {
		return nil
	}
	e := s.slots[i].Load()
	if e == nil {
		return nil
	}
	s.touch(e)
	return e.cube
}

// touch stamps an unpinned entry's use with the next tick.
func (s *LazySource) touch(e *entry) {
	if !e.pinned {
		e.used.Store(s.tick.Add(1))
	}
}

func (s *LazySource) countHits(n int64) {
	s.hits.Add(n)
	s.hitsC.Add(n)
}

// CubeN returns the cube over an attribute set (no duplicates, any
// order; {a} is the a × class cube, {a, b} the pair cube, k ≥ 3 a
// drill-down cube), materialized on demand. Its dimensions are the set
// in ascending order, so any permutation shares one cache entry; an
// unavailable cube is an error, never (nil, nil). A resident 1-D or
// pair cube is served without a lock; anything else takes the same
// steps as Cubes, timed by the lazy-build histogram.
func (s *LazySource) CubeN(ctx context.Context, attrs []int) (*rulecube.Cube, error) {
	if c := s.slotHit(attrs); c != nil {
		if len(attrs) == 2 {
			s.countHits(1)
		}
		return c, nil
	}
	items, err := s.items([][]int{attrs})
	if err != nil {
		return nil, err
	}
	out := make([]*rulecube.Cube, 1)
	if err := s.resolve(ctx, items, out, s.lazyH); err != nil {
		return nil, err
	}
	return out[0], nil
}

// Cubes resolves a batch of requests in request order, counting every
// miss among them in one shared scan (rulecube.BuildMany) timed by the
// batch-build histogram; callers that know their cube needs up front (a
// sweep, a drill-down frontier) should declare them here. The leading
// run of resident 1-D and pair cubes is served lock-free; the rest take
// the locked path in order, so use stamps advance as if every request
// had.
func (s *LazySource) Cubes(ctx context.Context, reqs [][]int) ([]*rulecube.Cube, error) {
	out := make([]*rulecube.Cube, len(reqs))
	i := s.residentPrefix(reqs, out)
	if i == len(reqs) {
		return out, nil
	}
	items, err := s.items(reqs[i:])
	if err != nil {
		return nil, err
	}
	if err := s.resolve(ctx, items, out[i:], s.batchH); err != nil {
		return nil, err
	}
	return out, nil
}

// PairSlices returns, in cands order, the A1 = v1 and A1 = v2 slices of
// the pair cube (a1, b) for every candidate b — all a pairwise
// comparison reads. A candidate whose pair cube is resident is read
// from it and counts as a hit. Every other candidate counts as a miss
// and is counted in one rulecube.CountSlices pass over the rows of
// either side, timed by the lazy-build histogram. Slices are never
// cached, so the call builds, inserts and evicts no cube.
func (s *LazySource) PairSlices(ctx context.Context, a1 int, v1, v2 int32, cands []int) ([]rulecube.Slices, error) {
	out, missing, err := s.residentSlices(a1, v1, v2, cands)
	if err != nil || len(missing) == 0 {
		return out, err
	}
	s.misses.Add(int64(len(missing)))
	s.missesC.Add(int64(len(missing)))
	start := time.Now()
	tabs, err := rulecube.CountSlices(ctx, s.ds, a1, v1, v2, pick(cands, missing))
	if err != nil {
		return nil, err
	}
	s.lazyH.ObserveSince(start)
	return scatter(out, tabs, missing), nil
}

// residentSlices validates a PairSlices request and reads the slices of
// every candidate whose pair cube is resident, counting those hits. It
// returns the positions of the candidates left to count, in order.
func (s *LazySource) residentSlices(a1 int, v1, v2 int32, cands []int) (out []rulecube.Slices, missing []int, err error) {
	out = make([]rulecube.Slices, len(cands))
	pair := []int{a1, 0}
	for i, b := range cands {
		if b == a1 {
			return nil, nil, fmt.Errorf("engine: duplicate attribute %d in cube request", b)
		}
		pair[1] = b
		for _, a := range pair {
			if a < 0 || a >= len(s.pos) || s.pos[a] < 0 {
				return nil, nil, fmt.Errorf("engine: no cube for attribute %d", a)
			}
		}
		c := s.slotHit(pair)
		if c == nil {
			missing = append(missing, i)
			continue
		}
		if out[i], err = rulecube.SlicesOf(c, a1, v1, v2); err != nil {
			return nil, nil, err
		}
	}
	s.countHits(int64(len(cands) - len(missing)))
	return out, missing, nil
}

// scatter stores tabs[k] at out[positions[k]] and returns out.
func scatter(out, tabs []rulecube.Slices, positions []int) []rulecube.Slices {
	for k, i := range positions {
		out[i] = tabs[k]
	}
	return out
}

// pick returns xs at the given positions.
func pick(xs, positions []int) []int {
	out := make([]int, len(positions))
	for k, i := range positions {
		out[k] = xs[i]
	}
	return out
}

// residentPrefix serves the leading run of requests whose 1-D or pair
// cube is resident, lock-free, and returns its length.
func (s *LazySource) residentPrefix(reqs [][]int, out []*rulecube.Cube) int {
	var hits int64
	i := 0
	for ; i < len(reqs); i++ {
		c := s.slotHit(reqs[i])
		if c == nil {
			break
		}
		out[i] = c
		if len(reqs[i]) == 2 {
			hits++
		}
	}
	s.countHits(hits)
	return i
}

// items validates every request against the served set and
// normalizes it to a sorted copy, its key and its slot.
func (s *LazySource) items(reqs [][]int) ([]batchItem, error) {
	items := make([]batchItem, len(reqs))
	for i, attrs := range reqs {
		if len(attrs) == 0 {
			return nil, fmt.Errorf("engine: empty attribute set in cube request")
		}
		norm := append([]int(nil), attrs...)
		sort.Ints(norm)
		for j, a := range norm {
			if a < 0 || a >= len(s.pos) || s.pos[a] < 0 {
				return nil, fmt.Errorf("engine: no cube for attribute %d", a)
			}
			if j > 0 && norm[j-1] == a {
				return nil, fmt.Errorf("engine: duplicate attribute %d in cube request", a)
			}
		}
		items[i] = batchItem{key: keyOf(norm), attrs: norm, slot: s.slot(norm)}
	}
	return items, nil
}

// batchItem is one request normalized to its cache key, sorted
// attribute list and slot (-1 for k ≥ 3).
type batchItem struct {
	key   cubeKey
	attrs []int
	slot  int
}

// lookupLocked returns the resident entry of it, or nil. Called with
// s.mu held.
func (s *LazySource) lookupLocked(it batchItem) *entry {
	if it.slot >= 0 {
		return s.slots[it.slot].Load()
	}
	return s.nd[it.key]
}

// resolve fills out with the cube of each item. One lock pass
// partitions the items into resident cubes, builds in flight elsewhere,
// and keys this call leads; the led set materializes in one shared scan
// timed by h, commits, and releases its flights, so concurrent requests
// for a key collapse into one build. Joined flights are awaited under
// ctx; an abandoned wait leaves the other build running.
func (s *LazySource) resolve(ctx context.Context, items []batchItem, out []*rulecube.Cube, h *obsv.Histogram) error {
	part := s.partitionBatch(items, out)
	if len(part.led) > 0 {
		if err := s.buildBatch(ctx, part, out, h); err != nil {
			return err
		}
	}
	for _, w := range part.waits {
		select {
		case <-w.f.done:
			if w.f.err != nil {
				return w.f.err
			}
			out[w.pos] = w.f.cube
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// batchWait is a request position answered by a build in flight
// elsewhere; the caller awaits its flight under its context.
type batchWait struct {
	pos int
	f   *flight
}

// batchPartition is the outcome of the one lock pass over a bulk
// request's keys: resident cubes are already filled into the output,
// builds in flight elsewhere are joined as waits, and the keys this
// call leads are listed for its one scan.
type batchPartition struct {
	waits []batchWait
	led   []ledBuild
}

// ledBuild is a key this call builds: its item, the flight registered
// for it, and the output positions it serves.
type ledBuild struct {
	it        batchItem
	f         *flight
	positions []int
}

// partitionBatch takes the single lock pass: it fills out from the
// cache (stamping uses), joins flights other calls lead, and registers
// a flight for every key this call will build. A k ≥ 2 item counts as
// a hit when resident and as a miss when it leads or joins a build.
func (s *LazySource) partitionBatch(items []batchItem, out []*rulecube.Cube) *batchPartition {
	part := &batchPartition{}
	leadIdx := make(map[cubeKey]int)
	var hits, misses int64
	s.mu.Lock()
	for i, it := range items {
		if e := s.lookupLocked(it); e != nil {
			s.touch(e)
			out[i] = e.cube
			if len(it.attrs) >= 2 {
				hits++
			}
			continue
		}
		if j, ok := leadIdx[it.key]; ok {
			part.led[j].positions = append(part.led[j].positions, i)
			continue
		}
		if len(it.attrs) >= 2 {
			misses++
		}
		if f, ok := s.flights[it.key]; ok {
			part.waits = append(part.waits, batchWait{pos: i, f: f})
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[it.key] = f
		leadIdx[it.key] = len(part.led)
		part.led = append(part.led, ledBuild{it: it, f: f, positions: []int{i}})
	}
	s.mu.Unlock()
	s.countHits(hits)
	if misses > 0 {
		s.misses.Add(misses)
		s.missesC.Add(misses)
	}
	return part
}

// buildBatch runs the one shared scan for the keys this call leads,
// timed by h, commits the cubes, fills the led output positions, and
// releases every flight. On error (a cancel) the flights fail fast and
// nothing is cached.
func (s *LazySource) buildBatch(ctx context.Context, part *batchPartition, out []*rulecube.Cube, h *obsv.Histogram) error {
	start := time.Now()
	cubes, err := rulecube.BuildMany(ctx, s.ds, part.requests())
	if err != nil {
		s.failFlights(part, err)
		return err
	}
	h.ObserveSince(start)
	s.commitBatch(part, cubes, out)
	return nil
}

// requests lists the led keys' attribute sets for BuildMany.
func (part *batchPartition) requests() [][]int {
	reqs := make([][]int, len(part.led))
	for i, l := range part.led {
		reqs[i] = l.it.attrs
	}
	return reqs
}

// failFlights releases every flight this call leads with the shared
// scan's error; nothing is cached.
func (s *LazySource) failFlights(part *batchPartition, err error) {
	for _, l := range part.led {
		s.finish(l.it.key, l.f, nil, err)
	}
}

// commitBatch caches the freshly built cubes under one lock, fills the
// output positions each led key serves, and releases the flights.
func (s *LazySource) commitBatch(part *batchPartition, cubes []*rulecube.Cube, out []*rulecube.Cube) {
	s.mu.Lock()
	for i, l := range part.led {
		it := l.it
		// A second flight can land after an eviction re-miss; the
		// resident entry stays authoritative.
		if old := s.lookupLocked(it); old != nil {
			s.touch(old)
		} else {
			s.insertLocked(it, cubes[i], &entry{}, len(it.attrs) == 1)
		}
		if len(it.attrs) == 1 {
			s.oneDBuilds.Add(1)
		} else {
			s.twoDBuilds.Add(1)
		}
	}
	s.mu.Unlock()
	for i, l := range part.led {
		for _, pos := range l.positions {
			out[pos] = cubes[i]
		}
		s.finish(l.it.key, l.f, cubes[i], nil)
	}
}

// finish publishes a flight's outcome and retires it. Errors are not
// cached: the flight is removed before done is closed, so a request
// arriving after the failure starts a fresh build.
func (s *LazySource) finish(key cubeKey, f *flight, cube *rulecube.Cube, err error) {
	f.cube, f.err = cube, err
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
}

// insertLocked makes c resident under the non-resident item it in the
// fresh entry e. An unpinned cube is stamped, charged to the budget and
// may evict — itself included, if it alone exceeds the budget (the
// caller still holds it). Called with s.mu held.
func (s *LazySource) insertLocked(it batchItem, c *rulecube.Cube, e *entry, pinned bool) {
	e.cube, e.slot, e.lru, e.pinned = c, it.slot, -1, pinned
	if it.slot < 0 {
		e.key = it.key
		s.nd[it.key] = e
	}
	if e.pinned {
		s.slots[it.slot].Store(e)
		s.pinned++
		return
	}
	e.size = c.SizeBytes()
	e.used.Store(s.tick.Add(1))
	e.lru = len(s.lru)
	s.lru = append(s.lru, e)
	s.bytes += e.size
	if it.slot >= 0 {
		s.slots[it.slot].Store(e) // publish last: hits read without the lock
	}
	s.evictLocked()
}

// evictLocked drops least recently used unpinned entries until the
// budget holds. Called with s.mu held.
func (s *LazySource) evictLocked() {
	for s.budget >= 0 && s.bytes > s.budget && len(s.lru) > 0 {
		oldest := s.lru[0]
		for _, e := range s.lru[1:] {
			if e.used.Load() < oldest.used.Load() {
				oldest = e
			}
		}
		s.unlinkLocked(oldest)
		s.evictions.Add(1)
		s.evictionsC.Inc()
	}
	s.bytesG.Set(s.bytes)
}

// unlinkLocked makes e non-resident, releasing its budget charge or
// pin. Called with s.mu held.
func (s *LazySource) unlinkLocked(e *entry) {
	if e.slot >= 0 {
		s.slots[e.slot].Store(nil)
	} else {
		delete(s.nd, e.key)
	}
	if e.pinned {
		s.pinned--
		return
	}
	last := s.lru[len(s.lru)-1]
	s.lru[e.lru], last.lru = last, e.lru
	s.lru = s.lru[:len(s.lru)-1]
	e.lru = -1
	s.bytes -= e.size
}

// cubesLocked lists every resident cube: 1-D cubes by attribute,
// then pair cubes by attribute pair, then k ≥ 3 cubes by key. Called
// with s.mu held.
func (s *LazySource) cubesLocked() []*rulecube.Cube {
	out := make([]*rulecube.Cube, 0, s.pinned+len(s.lru))
	for i := range s.slots {
		if e := s.slots[i].Load(); e != nil {
			out = append(out, e.cube)
		}
	}
	nd := make([]*entry, 0, len(s.nd))
	for _, e := range s.nd {
		nd = append(nd, e)
	}
	sort.Slice(nd, func(i, j int) bool { return nd[i].key < nd[j].key })
	for _, e := range nd {
		out = append(out, e.cube)
	}
	return out
}

// ResidentCubes returns every cube currently resident, in
// cubesLocked's deterministic order — the working set a session snapshot
// persists so a warm-started lazy engine skips re-counting it. The
// cubes are the source's own; callers must treat them as read-only.
func (s *LazySource) ResidentCubes() []*rulecube.Cube {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cubesLocked()
}

// SeedCubes installs cubes counted in an earlier process — a snapshot's
// resident set — so their first touch is a hit, not a data pass. Every
// cube is validated against the dataset (attribute membership,
// per-dimension cardinality, class count) first; a mismatch fails the
// whole seed without mutating the cache, since such a snapshot is
// stale. Cubes insert in the order given, as if just used, and may
// evict under the budget. Returns the number accepted (resident
// duplicates are skipped). Build counters do not advance.
func (s *LazySource) SeedCubes(cubes []*rulecube.Cube) (int, error) {
	items := make([]batchItem, len(cubes))
	for i, c := range cubes {
		it, err := s.seedItem(i, c)
		if err != nil {
			return 0, err
		}
		items[i] = it
	}
	slab := make([]entry, len(cubes))
	s.mu.Lock()
	defer s.mu.Unlock()
	seeded := 0
	for i, it := range items {
		if s.lookupLocked(it) != nil {
			continue
		}
		s.insertLocked(it, cubes[i], &slab[i], len(it.attrs) == 1)
		seeded++
	}
	return seeded, nil
}

// seedItem validates seed cube i against the dataset and returns its
// cache item: the slot for 1-D and pair cubes, else a sorted key.
func (s *LazySource) seedItem(i int, c *rulecube.Cube) (batchItem, error) {
	if c == nil {
		return batchItem{}, fmt.Errorf("engine: seed cube %d is nil", i)
	}
	if c.NumClasses() != s.ds.NumClasses() {
		return batchItem{}, fmt.Errorf("engine: seed cube %d has %d classes, dataset has %d", i, c.NumClasses(), s.ds.NumClasses())
	}
	idx := c.AttrIndices()
	if len(idx) == 0 {
		return batchItem{}, fmt.Errorf("engine: seed cube %d has no condition dimensions", i)
	}
	for p, a := range idx {
		if a < 0 || a >= len(s.pos) || s.pos[a] < 0 {
			return batchItem{}, fmt.Errorf("engine: seed cube %d references attribute %d outside the served set", i, a)
		}
		for _, b := range idx[:p] {
			if a == b {
				return batchItem{}, fmt.Errorf("engine: seed cube %d repeats attribute %d", i, a)
			}
		}
		card := max(s.ds.Cardinality(a), 1)
		if c.Dim(p) != card {
			return batchItem{}, fmt.Errorf("engine: seed cube %d dimension %d has cardinality %d, dataset says %d", i, p, c.Dim(p), card)
		}
	}
	if len(idx) <= 2 {
		return batchItem{attrs: idx, slot: s.slot(idx)}, nil
	}
	norm := append([]int(nil), idx...)
	sort.Ints(norm)
	return batchItem{key: keyOf(norm), attrs: norm, slot: -1}, nil
}

// IngestRows folds a batch of appended records — full working-dataset
// rows with their class codes — into every resident cube, pinned or
// not, in one atomic rulecube.IngestCubes apply, then re-accounts the
// unpinned bytes (grown dimensions may evict). Non-resident cubes
// materialize later from the grown dataset. Callers must ensure no
// query concurrently reads cube counts (the Session ingest lock does);
// the source's lock only protects the cache structures.
func (s *LazySource) IngestRows(rows [][]int32, classes []int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := rulecube.IngestCubes(s.cubesLocked(), s.ds.NumAttrs(), rows, classes)
	for _, e := range s.lru {
		if grown := e.cube.SizeBytes(); grown != e.size {
			s.bytes += grown - e.size
			e.size = grown
		}
	}
	s.evictLocked()
	return err
}

// Merge folds o's pinned store into s's (rulecube.Store.Merge) and
// drops s's unpinned cubes: counted over s's rows alone, they would
// miss o's. The caller appends o's rows to s's dataset, so later
// misses count the union.
func (s *LazySource) Merge(o *LazySource) error {
	if s.store == nil || o.store == nil {
		return fmt.Errorf("engine: merge needs both sources' 1-D and pair cubes pinned")
	}
	if err := s.store.Merge(o.store); err != nil {
		return err
	}
	s.mu.Lock()
	for len(s.lru) > 0 {
		s.unlinkLocked(s.lru[0])
	}
	s.bytesG.Set(s.bytes)
	s.mu.Unlock()
	s.pin(s.store) // a merge may add cubes the destination lacked
	return nil
}
