package opmap

import (
	"fmt"
	"sort"

	"opmap/internal/compare"
	"opmap/internal/drill"
	"opmap/internal/engine"
)

// memo answers key from the result cache rc or computes it. compute
// reports whether its answer is partial; a complete answer is cached
// under the version read before it was computed, so an invalidation in
// between drops it, with deps (nil: the answer depends on every
// attribute). Partial answers are never cached.
func memo[T any](rc *engine.ResultCache, key string, deps []int, compute func() (T, bool, error)) (T, error) {
	ver := rc.Version()
	if v, ok := rc.Get(ver, key); ok {
		return v.(T), nil
	}
	val, partial, err := compute()
	if err == nil && !partial {
		rc.PutDeps(ver, key, val, deps)
	}
	return val, err
}

// Result-cache key construction. Keys are normalized so queries that
// must return identical results share an entry:
//   - the compared value pair is sorted by code (the comparator
//     orients by confidence internally, so (v1,v2) and (v2,v1) yield
//     the same Result);
//   - the restricted-attribute list is sorted (the final ranking is
//     score-ordered, so input order is irrelevant);
//   - PartialOnDeadline is excluded (it changes degradation behaviour,
//     not the value of a completed result — and partial results are
//     never cached).
// Keys embed resolved codes, not labels, so they are only meaningful
// against the snapshot version they were stored under.

// compareOptsKey fingerprints the result-affecting fields of the
// internal compare options.
func compareOptsKey(o compare.Options) string {
	attrs := append([]int(nil), o.Attrs...)
	sort.Ints(attrs)
	return fmt.Sprintf("lvl=%g|ci=%t|m=%d|pt=%g|mrs=%d|attrs=%v",
		float64(o.Level), o.DisableCI, o.Method, o.PropertyThreshold, o.MinRuleSupport, attrs)
}

// compareKey keys a pairwise comparison.
func compareKey(in compare.Input, o compare.Options) string {
	lo, hi := in.V1, in.V2
	if lo > hi {
		lo, hi = hi, lo
	}
	return fmt.Sprintf("compare|a=%d|v=%d,%d|c=%d|%s", in.Attr, lo, hi, in.Class, compareOptsKey(o))
}

// oneVsRestAllKey keys a one-vs-rest run over every value of an
// attribute. Only result-shaping options are part of the identity; how
// the cubes get materialized never changes the result.
func oneVsRestAllKey(attr int, class int32, o compare.Options) string {
	return fmt.Sprintf("onevsrestall|a=%d|c=%d|%s", attr, class, compareOptsKey(o))
}

// sweepKey keys a sweep; maxPairs changes which pairs are compared,
// so it is part of the identity.
func sweepKey(attr int, class int32, maxPairs int) string {
	return fmt.Sprintf("sweep|a=%d|c=%d|max=%d", attr, class, maxPairs)
}

// drilldownKey keys a drill-down. Depth, beam, node budget and
// support floor all change which branches are searched, so they are
// part of the identity, as is the scoring measure.
func drilldownKey(in compare.Input, o drill.Options) string {
	lo, hi := in.V1, in.V2
	if lo > hi {
		lo, hi = hi, lo
	}
	meas := "paper"
	if o.Measure != nil {
		meas = o.Measure.Name()
	}
	return fmt.Sprintf("drill|a=%d|v=%d,%d|c=%d|d=%d|b=%d|n=%d|ms=%d|meas=%s|%s",
		in.Attr, lo, hi, in.Class, o.MaxDepth, o.Beam, o.MaxNodes, o.MinSupport, meas, compareOptsKey(o.Compare))
}

// impressionsKey keys a GI-miner run over the full cube space.
func impressionsKey(o ImpressionOptions) string {
	return fmt.Sprintf("impressions|tt=%g|ts=%g|ez=%g|es=%d",
		o.TrendTolerance, o.TrendMinStrength, o.ExceptionMinZ, o.ExceptionMinSupport)
}
