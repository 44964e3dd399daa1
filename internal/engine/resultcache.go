package engine

import (
	"sync"

	"opmap/internal/obsv"
)

// DefaultResultCacheEntries caps the query-result cache when
// ResultCacheOptions leave MaxEntries zero. An entry holds one answer's
// attribute scores and four counts per candidate value, never a cube:
// on an 80-attribute call log a pairwise compare keeps about 28 KB and
// an all-values one-vs-rest about 167 KB, so 256 entries stay in the
// tens of megabytes. The entry count is the only control; a byte budget
// would be a second setting that no workload needs.
const DefaultResultCacheEntries = 256

// ResultCache memoizes finished query results (Compare, Sweep,
// Impressions) under a (snapshot version, normalized query key) pair.
// The version fences staleness: Invalidate bumps it and clears the
// cache, so results computed against a dropped snapshot can neither be
// returned nor inserted afterwards — re-discretizing or downsampling a
// Session must never serve counts from the old cube space.
//
// Streaming appends invalidate more surgically: each entry may carry
// the set of attribute indices its result depends on, and BumpAttrs
// advances a per-attribute epoch and removes only the entries whose
// dependency set intersects the appended attributes (entries with no
// recorded set depend on everything and always go). An append batch of
// rows that are missing most fields — the common shape in streaming
// call logs — therefore leaves restricted Compare results on untouched
// attributes servable instead of cold. Entries beyond the cap evict
// least-recently-used. Safe for concurrent use.
type ResultCache struct {
	mu      sync.Mutex
	version int64
	entries map[string]*rcEntry
	tick    int64 // use-stamp clock
	max     int

	attrEpochs map[int]int64 // per-attribute append epoch
	anyEpoch   int64         // bumped by every BumpAttrs call

	hits          int64
	misses        int64
	invalidations int64
}

// rcEntry is one memoized result. deps lists the attribute indices the
// result was computed from; nil means the result depends on every
// attribute (sweeps and impressions rank across all of them).
type rcEntry struct {
	val  any
	deps []int
	used int64 // tick of the last Get or Put
}

// NewResultCache creates a cache holding at most max entries
// (DefaultResultCacheEntries when max is zero or negative).
func NewResultCache(max int) *ResultCache {
	if max <= 0 {
		max = DefaultResultCacheEntries
	}
	return &ResultCache{
		entries:    make(map[string]*rcEntry),
		max:        max,
		attrEpochs: make(map[int]int64),
	}
}

// Version returns the current snapshot version. Callers snapshot it
// before running a query and pass it to Get/Put, so a concurrent
// Invalidate between compute and insert drops the stale result instead
// of caching it.
func (rc *ResultCache) Version() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.version
}

// Invalidate advances the version and empties the cache.
func (rc *ResultCache) Invalidate() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.version++
	rc.entries = make(map[string]*rcEntry)
}

// Get returns the memoized value for key if it was stored under the
// same version and is still resident.
func (rc *ResultCache) Get(version int64, key string) (any, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if version == rc.version {
		if e, ok := rc.entries[key]; ok {
			rc.tick++
			e.used = rc.tick
			rc.hits++
			obsv.Default().Counter(ResultCacheHitsCounterName).Inc()
			return e.val, true
		}
	}
	rc.misses++
	obsv.Default().Counter(ResultCacheMissesCounterName).Inc()
	return nil, false
}

// Put memoizes val under key if version is still current; stale
// versions are dropped silently. Existing entries are refreshed. The
// entry depends on every attribute: any append invalidates it. Results
// with a narrower footprint should use PutDeps.
func (rc *ResultCache) Put(version int64, key string, val any) {
	rc.PutDeps(version, key, val, nil)
}

// PutDeps memoizes val under key recording the attribute indices the
// result depends on, so BumpAttrs can spare it when an append batch
// touches only other attributes. nil deps means "depends on all".
func (rc *ResultCache) PutDeps(version int64, key string, val any, deps []int) {
	if deps != nil {
		deps = append([]int(nil), deps...)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if version != rc.version {
		return
	}
	rc.tick++
	if e, ok := rc.entries[key]; ok {
		e.val, e.deps, e.used = val, deps, rc.tick
		return
	}
	rc.entries[key] = &rcEntry{val: val, deps: deps, used: rc.tick}
	if len(rc.entries) > rc.max {
		// Evict the least recently used entry: the smallest stamp.
		oldest, stamp := "", rc.tick
		for k, e := range rc.entries {
			if e.used < stamp {
				oldest, stamp = k, e.used
			}
		}
		delete(rc.entries, oldest)
	}
}

// BumpAttrs records an append batch that changed the given attribute
// indices: each attribute's epoch advances and every resident entry
// whose dependency set intersects attrs — plus every entry with no
// recorded set, which depends on all of them — is removed. It returns
// how many entries were invalidated. Unlike Invalidate, the version is
// unchanged: results for untouched attributes stay servable.
func (rc *ResultCache) BumpAttrs(attrs []int) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.anyEpoch++
	touched := make(map[int]bool, len(attrs))
	for _, a := range attrs {
		rc.attrEpochs[a]++
		touched[a] = true
	}
	removed := 0
	for k, e := range rc.entries {
		stale := e.deps == nil
		for _, d := range e.deps {
			if touched[d] {
				stale = true
				break
			}
		}
		if stale {
			delete(rc.entries, k)
			removed++
		}
	}
	if removed > 0 {
		rc.invalidations += int64(removed)
		obsv.Default().Counter(ResultCacheInvalidationsCounterName).Add(int64(removed))
	}
	return removed
}

// AttrEpoch returns how many append batches have touched attribute a
// since the cache was created.
func (rc *ResultCache) AttrEpoch(a int) int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.attrEpochs[a]
}

// Len returns the number of resident entries.
func (rc *ResultCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.entries)
}

// ResultCacheStats is a snapshot of cache effectiveness counters.
type ResultCacheStats struct {
	Hits          int64
	Misses        int64
	Entries       int
	Version       int64
	Invalidations int64 // entries removed by per-attribute epoch bumps
}

// Stats snapshots the cache counters.
func (rc *ResultCache) Stats() ResultCacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ResultCacheStats{
		Hits:          rc.hits,
		Misses:        rc.misses,
		Entries:       len(rc.entries),
		Version:       rc.version,
		Invalidations: rc.invalidations,
	}
}
