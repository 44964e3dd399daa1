package engine

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"opmap/internal/dataset"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
)

// DefaultCacheBytes is the cube LRU budget (all k ≥ 2 cubes) when
// LazyOptions leaves CacheBytes zero: 64 MiB ≈ 8M cells, far beyond
// the working set Smart Drill-Down-style exploration touches, small
// next to an eager all-pairs store on a wide schema.
const DefaultCacheBytes = 64 << 20

// cubeKey identifies a cached cube by its sorted condition-dimension
// list: "3" for the 1-D cube of attribute 3, "3,7" for a pair, and
// "1,3,7" for a 3-condition drill-down cube. Requests over the same
// attribute set in any order share one entry.
type cubeKey string

// keyOf builds the cache key of a normalized (sorted) attribute list.
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
	// CacheBytes is the byte budget of the 2-D cube LRU. Zero means
	// DefaultCacheBytes; negative means unlimited.
	CacheBytes int64
}

// LazyStats is a point-in-time snapshot of a LazySource's counters,
// used by tests (singleflight: exactly one build per key) and the
// Session.EngineStats API. Global obsv metrics advance in lockstep.
type LazyStats struct {
	// OneDBuilds / TwoDBuilds count completed cube materializations;
	// TwoDBuilds covers every LRU-resident arity (pairs and k ≥ 3
	// drill-down cubes alike).
	OneDBuilds int64
	TwoDBuilds int64
	// Hits / Misses count LRU (k ≥ 2) lookups (1-D cubes are pinned
	// after the first build and tiny, so only the LRU is accounted).
	Hits   int64
	Misses int64
	// Evictions counts cubes dropped to satisfy the byte budget.
	Evictions int64
	// CachedBytes / CachedCubes describe the resident k ≥ 2 LRU.
	CachedBytes int64
	CachedCubes int
	// PinnedOneD is the number of resident 1-D cubes.
	PinnedOneD int
}

// lruEntry is one resident k ≥ 2 cube keyed by its normalized
// (sorted) attribute set.
type lruEntry struct {
	key   cubeKey
	attrs []int
	cube  *rulecube.Cube
	size  int64
}

// flight is an in-progress cube build. The leader closes done after
// publishing cube/err; followers wait on done or their own context.
type flight struct {
	done chan struct{}
	cube *rulecube.Cube
	err  error
}

// LazySource materializes rule cubes on first use. 1-D cubes (one per
// attribute, O(cardinality × classes) cells) are pinned once built;
// every higher-arity cube — pairs and the k ≥ 3 cubes drill-down
// requests — lives in one byte-budgeted LRU. Concurrent first-touch
// requests for the same cube are collapsed into a single build
// (per-key singleflight); build errors are returned to every waiter
// but never cached, so transient failures retry. Safe for concurrent
// use.
type LazySource struct {
	ds    *dataset.Dataset
	attrs []int
	inSet map[int]bool

	budget int64 // <0 = unlimited

	mu      sync.Mutex
	oneD    map[int]*rulecube.Cube
	nd      map[cubeKey]*list.Element // k ≥ 2 cubes; value: *lruEntry
	order   *list.List                // front = most recently used
	bytes   int64
	flights map[cubeKey]*flight // 1-D keys are single-attribute keys

	oneDBuilds atomic.Int64
	twoDBuilds atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
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
	attrs, err := normalizeAttrs(ds, opts.Attrs)
	if err != nil {
		return nil, err
	}
	budget := opts.CacheBytes
	if budget == 0 {
		budget = DefaultCacheBytes
	}
	s := &LazySource{
		ds:      ds,
		attrs:   attrs,
		inSet:   make(map[int]bool, len(attrs)),
		budget:  budget,
		oneD:    make(map[int]*rulecube.Cube, len(attrs)),
		nd:      make(map[cubeKey]*list.Element),
		order:   list.New(),
		flights: make(map[cubeKey]*flight),
	}
	for _, a := range attrs {
		s.inSet[a] = true
	}
	return s, nil
}

// Dataset implements CubeSource.
func (s *LazySource) Dataset() *dataset.Dataset { return s.ds }

// Attrs implements CubeSource.
func (s *LazySource) Attrs() []int { return s.attrs }

// Stats snapshots the source's counters.
func (s *LazySource) Stats() LazyStats {
	s.mu.Lock()
	cachedBytes := s.bytes
	cachedCubes := s.order.Len()
	pinned := len(s.oneD)
	s.mu.Unlock()
	return LazyStats{
		OneDBuilds:  s.oneDBuilds.Load(),
		TwoDBuilds:  s.twoDBuilds.Load(),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Evictions:   s.evictions.Load(),
		CachedBytes: cachedBytes,
		CachedCubes: cachedCubes,
		PinnedOneD:  pinned,
	}
}

// CubeN implements CubeSource: the cube over an attribute set,
// materialized on demand. The request is normalized to ascending
// attribute order — that is the returned cube's dimension order — so
// any permutation of the same set shares one cache entry. A hit is one
// locked map lookup; a miss takes the same partition, shared-scan and
// commit steps as Cubes, timed by the lazy-build histogram.
func (s *LazySource) CubeN(ctx context.Context, attrs []int) (*rulecube.Cube, error) {
	norm, err := s.normalizeSet(attrs)
	if err != nil {
		return nil, err
	}
	it := batchItem{key: keyOf(norm), attrs: norm}
	s.mu.Lock()
	c := s.residentLocked(it)
	s.mu.Unlock()
	if c != nil {
		if len(norm) >= 2 {
			s.hits.Add(1)
			obsv.Default().Counter(CubeCacheHitsCounterName).Inc()
		}
		return c, nil
	}
	out := make([]*rulecube.Cube, 1)
	if err := s.resolve(ctx, []batchItem{it}, out, obsv.Default().Histogram(LazyBuildHistogramName, nil)); err != nil {
		return nil, err
	}
	return out[0], nil
}

// residentLocked returns the cached cube for it, refreshing its LRU
// position, or nil. Called with s.mu held.
func (s *LazySource) residentLocked(it batchItem) *rulecube.Cube {
	if len(it.attrs) == 1 {
		return s.oneD[it.attrs[0]]
	}
	if el, ok := s.nd[it.key]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*lruEntry).cube
	}
	return nil
}

// normalizeSet validates an n-D request against the served set and
// returns the sorted copy that keys the cache.
func (s *LazySource) normalizeSet(attrs []int) ([]int, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("engine: empty attribute set in cube request")
	}
	norm := append([]int(nil), attrs...)
	sort.Ints(norm)
	for i, a := range norm {
		if !s.inSet[a] {
			return nil, fmt.Errorf("engine: no cube for attribute %d", a)
		}
		if i > 0 && norm[i-1] == a {
			return nil, fmt.Errorf("engine: duplicate attribute %d in cube request", a)
		}
	}
	return norm, nil
}

// Cubes implements CubeSource's bulk method: the requests resolve
// together, so every cache miss among them is counted in one shared
// dataset scan (rulecube.BuildMany), timed by the batch-build
// histogram.
func (s *LazySource) Cubes(ctx context.Context, reqs [][]int) ([]*rulecube.Cube, error) {
	items, err := s.batchItems(reqs)
	if err != nil {
		return nil, err
	}
	out := make([]*rulecube.Cube, len(reqs))
	if err := s.resolve(ctx, items, out, obsv.Default().Histogram(BatchBuildHistogramName, nil)); err != nil {
		return nil, err
	}
	return out, nil
}

// batchItems validates and normalizes every request of a bulk call.
func (s *LazySource) batchItems(reqs [][]int) ([]batchItem, error) {
	items := make([]batchItem, len(reqs))
	for i, attrs := range reqs {
		norm, err := s.normalizeSet(attrs)
		if err != nil {
			return nil, err
		}
		items[i] = batchItem{key: keyOf(norm), attrs: norm}
	}
	return items, nil
}

// batchItem is one request normalized to its cache key and sorted
// attribute list.
type batchItem struct {
	key   cubeKey
	attrs []int
}

// resolve fills out with the cube of each item. One lock pass
// partitions the items into resident cubes, builds already in flight
// elsewhere, and keys this call leads; the led set materializes in a
// single shared scan timed by h, is committed to the caches, and every
// registered flight is released — so concurrent requests for the same
// key, single or bulk, collapse into one build. Joined flights are
// waited on afterwards under ctx; an abandoned wait leaves the other
// build running.
func (s *LazySource) resolve(ctx context.Context, items []batchItem, out []*rulecube.Cube, h *obsv.Histogram) error {
	part := s.partitionBatch(items, out)
	if len(part.toBuild) > 0 {
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
// call leads carry their registered flights and the output positions
// each will serve.
type batchPartition struct {
	waits     []batchWait
	toBuild   []batchItem
	flights   []*flight
	positions [][]int // positions served by each toBuild entry
}

// partitionBatch takes the single lock pass: it fills out from the
// caches (refreshing LRU order), joins flights other calls lead, and
// registers a flight for every key this call will build. A k ≥ 2 item
// counts as a hit when resident and as a miss when it leads or joins a
// build.
func (s *LazySource) partitionBatch(items []batchItem, out []*rulecube.Cube) *batchPartition {
	part := &batchPartition{}
	leadIdx := make(map[cubeKey]int)
	var hits, misses int64
	s.mu.Lock()
	for i, it := range items {
		if c := s.residentLocked(it); c != nil {
			out[i] = c
			if len(it.attrs) >= 2 {
				hits++
			}
			continue
		}
		if j, ok := leadIdx[it.key]; ok {
			part.positions[j] = append(part.positions[j], i)
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
		leadIdx[it.key] = len(part.toBuild)
		part.toBuild = append(part.toBuild, it)
		part.flights = append(part.flights, f)
		part.positions = append(part.positions, []int{i})
	}
	s.mu.Unlock()
	if hits > 0 {
		s.hits.Add(hits)
		obsv.Default().Counter(CubeCacheHitsCounterName).Add(hits)
	}
	if misses > 0 {
		s.misses.Add(misses)
		obsv.Default().Counter(CubeCacheMissesCounterName).Add(misses)
	}
	return part
}

// buildBatch runs the one shared scan for the keys this call leads,
// observes its duration in h, commits the cubes, fills the led output
// positions, and releases every flight. On error (a cancel included)
// the flights fail fast and nothing is cached, so a later request
// starts a fresh build.
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
	reqs := make([][]int, len(part.toBuild))
	for i, it := range part.toBuild {
		reqs[i] = it.attrs
	}
	return reqs
}

// failFlights releases every flight this call leads with the shared
// scan's error; nothing is cached.
func (s *LazySource) failFlights(part *batchPartition, err error) {
	for i, it := range part.toBuild {
		s.finish(it.key, part.flights[i], nil, err)
	}
}

// commitBatch caches the freshly built cubes under one lock, fills the
// output positions each led key serves, and releases the flights.
func (s *LazySource) commitBatch(part *batchPartition, cubes []*rulecube.Cube, out []*rulecube.Cube) {
	s.mu.Lock()
	for i, it := range part.toBuild {
		if len(it.attrs) == 1 {
			s.oneD[it.attrs[0]] = cubes[i]
			s.oneDBuilds.Add(1)
		} else {
			s.insertND(it.key, it.attrs, cubes[i])
			s.twoDBuilds.Add(1)
		}
	}
	s.mu.Unlock()
	for i, it := range part.toBuild {
		for _, pos := range part.positions[i] {
			out[pos] = cubes[i]
		}
		s.finish(it.key, part.flights[i], cubes[i], nil)
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

// Budget returns the configured 2-D cube cache byte budget (negative
// means unlimited) — recorded in session snapshots so a warm start can
// restore the same engine configuration.
func (s *LazySource) Budget() int64 { return s.budget }

// ResidentCubes returns every cube currently materialized — pinned 1-D
// cubes by attribute index, then cached k ≥ 2 cubes ordered by arity
// and attribute list — the working set a session snapshot persists so
// a warm-started lazy engine skips re-counting them. The cubes are the
// source's own; callers must treat them as read-only.
func (s *LazySource) ResidentCubes() []*rulecube.Cube {
	s.mu.Lock()
	defer s.mu.Unlock()
	oneKeys := make([]int, 0, len(s.oneD))
	for a := range s.oneD {
		oneKeys = append(oneKeys, a)
	}
	sort.Ints(oneKeys)
	entries := make([]*lruEntry, 0, len(s.nd))
	for _, el := range s.nd {
		entries = append(entries, el.Value.(*lruEntry))
	}
	sort.Slice(entries, func(i, j int) bool {
		ai, aj := entries[i].attrs, entries[j].attrs
		if len(ai) != len(aj) {
			return len(ai) < len(aj)
		}
		for p := range ai {
			if ai[p] != aj[p] {
				return ai[p] < aj[p]
			}
		}
		return false
	})
	out := make([]*rulecube.Cube, 0, len(oneKeys)+len(entries))
	for _, a := range oneKeys {
		out = append(out, s.oneD[a])
	}
	for _, e := range entries {
		out = append(out, e.cube)
	}
	return out
}

// SeedCubes installs cubes counted in an earlier process — a snapshot's
// resident set — so the first touch of each is a cache hit instead of a
// data pass. Every cube is validated against the dataset (attribute
// membership, per-dimension cardinality, class count); a mismatch
// fails the whole seed without mutating the caches, since a snapshot
// that disagrees with the data is stale and none of it can be trusted.
// k ≥ 2 cubes enter the LRU front in the order given and may evict
// under the byte budget. Returns the number of cubes accepted
// (already-resident duplicates are skipped; an over-budget cube may
// still evict). Build counters do not advance: seeded cubes were not
// built here.
func (s *LazySource) SeedCubes(cubes []*rulecube.Cube) (int, error) {
	type placed struct {
		attrs []int // nil for 1-D (pinned) entries
		one   int
		cube  *rulecube.Cube
	}
	plan := make([]placed, 0, len(cubes))
	for i, c := range cubes {
		if c == nil {
			return 0, fmt.Errorf("engine: seed cube %d is nil", i)
		}
		if c.NumClasses() != s.ds.NumClasses() {
			return 0, fmt.Errorf("engine: seed cube %d has %d classes, dataset has %d", i, c.NumClasses(), s.ds.NumClasses())
		}
		idx := c.AttrIndices()
		if len(idx) == 0 {
			return 0, fmt.Errorf("engine: seed cube %d has no condition dimensions", i)
		}
		seen := make(map[int]bool, len(idx))
		for pos, a := range idx {
			if !s.inSet[a] {
				return 0, fmt.Errorf("engine: seed cube %d references attribute %d outside the served set", i, a)
			}
			if seen[a] {
				return 0, fmt.Errorf("engine: seed cube %d repeats attribute %d", i, a)
			}
			seen[a] = true
			card := s.ds.Cardinality(a)
			if card == 0 {
				card = 1
			}
			if c.Dim(pos) != card {
				return 0, fmt.Errorf("engine: seed cube %d dimension %d has cardinality %d, dataset says %d", i, pos, c.Dim(pos), card)
			}
		}
		if len(idx) == 1 {
			plan = append(plan, placed{one: idx[0], cube: c})
			continue
		}
		norm := append([]int(nil), idx...)
		sort.Ints(norm)
		plan = append(plan, placed{attrs: norm, cube: c})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seeded := 0
	for _, p := range plan {
		if p.attrs == nil {
			if _, ok := s.oneD[p.one]; ok {
				continue
			}
			s.oneD[p.one] = p.cube
			seeded++
			continue
		}
		key := keyOf(p.attrs)
		if _, ok := s.nd[key]; ok {
			continue
		}
		s.insertND(key, p.attrs, p.cube)
		seeded++
	}
	return seeded, nil
}

// IngestRows folds a batch of appended records into every resident
// cube — pinned 1-D cubes and cached k ≥ 2 cubes alike — in one
// rulecube.IngestCubes apply, then re-accounts LRU bytes (a cube whose
// dimensions grew with new labels is bigger; the budget may evict).
// Non-resident cubes need nothing: they materialize later from the
// already-updated dataset. Each row is the full working-dataset row
// indexed by attribute index, with classes the parallel class codes.
// The apply is atomic across the whole source: on error no resident
// cube's counts or totals change. Callers must ensure no query is
// concurrently reading cube counts (the Session ingest lock provides
// this); the source's own lock only protects the cache structures.
func (s *LazySource) IngestRows(rows [][]int32, classes []int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cubes := make([]*rulecube.Cube, 0, len(s.oneD)+s.order.Len())
	for _, c := range s.oneD {
		cubes = append(cubes, c)
	}
	for el := s.order.Front(); el != nil; el = el.Next() {
		cubes = append(cubes, el.Value.(*lruEntry).cube)
	}
	err := rulecube.IngestCubes(cubes, s.ds.NumAttrs(), rows, classes)
	for el := s.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		if grown := e.cube.SizeBytes(); grown != e.size {
			s.bytes += grown - e.size
			e.size = grown
		}
	}
	if s.budget >= 0 {
		for s.bytes > s.budget && s.order.Len() > 0 {
			tail := s.order.Back()
			ev := tail.Value.(*lruEntry)
			s.order.Remove(tail)
			delete(s.nd, ev.key)
			s.bytes -= ev.size
			s.evictions.Add(1)
			obsv.Default().Counter(CubeCacheEvictionsCounterName).Inc()
		}
	}
	obsv.Default().Gauge(CubeCacheBytesGaugeName).Set(s.bytes)
	return err
}

// insertND records a freshly built k ≥ 2 cube and evicts from the LRU
// tail until the budget holds. Called with s.mu held. The fresh entry
// is inserted first and may itself be evicted if it alone exceeds the
// budget — the caller still returns the cube it holds; it just won't
// be resident for the next request.
func (s *LazySource) insertND(key cubeKey, attrs []int, c *rulecube.Cube) {
	if el, ok := s.nd[key]; ok {
		// A second flight can theoretically land after an eviction
		// re-miss; keep the resident entry authoritative.
		s.order.MoveToFront(el)
		return
	}
	e := &lruEntry{key: key, attrs: append([]int(nil), attrs...), cube: c, size: c.SizeBytes()}
	s.nd[key] = s.order.PushFront(e)
	s.bytes += e.size
	if s.budget >= 0 {
		for s.bytes > s.budget && s.order.Len() > 0 {
			tail := s.order.Back()
			ev := tail.Value.(*lruEntry)
			s.order.Remove(tail)
			delete(s.nd, ev.key)
			s.bytes -= ev.size
			s.evictions.Add(1)
			obsv.Default().Counter(CubeCacheEvictionsCounterName).Inc()
		}
	}
	obsv.Default().Gauge(CubeCacheBytesGaugeName).Set(s.bytes)
}
