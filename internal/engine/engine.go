// Package engine serves rule cubes to the query layers (compare, gi,
// drill, the public Session API, the opmapd daemon). The paper's
// deployed system pre-computes every rule cube offline (Section V.C);
// COMPARE (arXiv:2107.11967) and Smart Drill-Down (arXiv:1412.0364)
// observe that interactive comparison workloads touch a small, skewed
// subset of the cube lattice and are dominated by repeated overlapping
// aggregates. LazySource is the one engine for both shapes: a working
// set materialized on demand under a byte budget, with the paper's
// precomputed cubes as the same cache with every 1-D and pair cube
// pinned (PinAll, or Pin for cubes counted elsewhere).
package engine

import "opmap/internal/obsv"

// Metric names recorded by the engine layer. The cube cache inside
// LazySource owns the cube_cache family;
// result-cache counters are advanced by ResultCache. All are plain
// counters/gauges in the obsv default registry so they surface on
// opmapd's /metrics endpoint.
const (
	// CubeCacheHitsCounterName counts k ≥ 2 cube requests served from
	// the cache without a build.
	CubeCacheHitsCounterName = "opmap_cube_cache_hits_total"
	// CubeCacheMissesCounterName counts k ≥ 2 cube requests that had to
	// materialize (or join an in-flight materialization of) the cube.
	CubeCacheMissesCounterName = "opmap_cube_cache_misses_total"
	// CubeCacheEvictionsCounterName counts unpinned cubes dropped to
	// satisfy the byte budget.
	CubeCacheEvictionsCounterName = "opmap_cube_cache_evictions_total"
	// CubeCacheBytesGaugeName tracks the resident unpinned cube bytes.
	CubeCacheBytesGaugeName = "opmap_cube_cache_bytes"
	// LazyBuildHistogramName times each on-demand cube build (1-D and
	// 2-D) performed by a LazySource — the user-facing cold-path cost.
	LazyBuildHistogramName = "opmap_lazy_build_seconds"
	// ResultCacheHitsCounterName / ResultCacheMissesCounterName count
	// query-result cache lookups (compare, one-vs-rest over all
	// values, sweep, drill-down and impressions).
	ResultCacheHitsCounterName   = "opmap_result_cache_hits_total"
	ResultCacheMissesCounterName = "opmap_result_cache_misses_total"
	// ResultCacheInvalidationsCounterName counts cached results removed
	// by BumpAttrs when appended rows touched an attribute the result
	// depended on.
	ResultCacheInvalidationsCounterName = "opmap_resultcache_invalidations_total"
	// BatchBuildHistogramName times each shared-scan batch build a
	// LazySource performs for a bulk Cubes request — one observation per
	// scan, however many cubes it materialized.
	BatchBuildHistogramName = "opmap_batch_build_seconds"
)

// PreRegister creates every engine metric series in reg at zero so
// servers expose them before the first query touches them (the ci
// smoke asserts `opmap_cube_cache_misses_total 0` on a freshly started
// lazy daemon). Each name is the constant itself, so the registration
// site stays greppable and the metricname analyzer can check it.
func PreRegister(reg *obsv.Registry) {
	reg.Counter(CubeCacheHitsCounterName)
	reg.Counter(CubeCacheMissesCounterName)
	reg.Counter(CubeCacheEvictionsCounterName)
	reg.Counter(ResultCacheHitsCounterName)
	reg.Counter(ResultCacheMissesCounterName)
	reg.Counter(ResultCacheInvalidationsCounterName)
	reg.Gauge(CubeCacheBytesGaugeName)
	reg.Histogram(LazyBuildHistogramName, nil)
	reg.Histogram(BatchBuildHistogramName, nil)
}
