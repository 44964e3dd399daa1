package obsv

import (
	"sync/atomic"
	"time"
)

// Stage-duration instrumentation. Every pipeline entry point opens a
// span (one clock read) and closes it when the stage returns (one
// more clock read plus a histogram observe), so the benchmark and the
// /metrics endpoint can report real per-stage timings. Hot loops —
// the per-pair cube builds and the per-attribute compare scoring —
// are gated behind ArmHot: disarmed (the default) they cost a single
// atomic load per iteration and take no clock readings at all.

// StageHistogramName is the histogram family every stage span records
// into, labeled by stage.
const StageHistogramName = "opmap_stage_duration_seconds"

// Hot-path histogram families (disarmed by default; see ArmHot).
const (
	// CubeBuildHistogramName times each counting scan
	// (rulecube.BuildMany call), however many cubes it produced.
	CubeBuildHistogramName = "opmap_cube_build_seconds"
	// CompareAttrHistogramName times each candidate attribute scored
	// in the compare hot loop.
	CompareAttrHistogramName = "opmap_compare_attr_seconds"
)

// Pipeline stage names, one per instrumented entry point.
const (
	StageBuildCubes       = "build_cubes"
	StageCompare          = "compare"
	StageCompareOneVsRest = "compare_one_vs_rest"
	// StageCompareOneVsRestAll spans the batch one-vs-rest run over
	// every value of an attribute (one span for the whole fan-out).
	StageCompareOneVsRestAll = "compare_one_vs_rest_all"
	StageSweep               = "sweep"
	StagePermutationTest     = "permutation_test"
	StageImpressions         = "impressions"
	StageGIMine              = "gi_mine"
	// StageDrillDown spans one multi-condition drill-down run (root
	// comparison plus every frontier expansion).
	StageDrillDown = "drilldown"
)

// PipelineStages lists every known stage, in pipeline order. Default()
// pre-registers a histogram per stage so /metrics shows the full set
// even before a stage has run.
var PipelineStages = []string{
	StageBuildCubes,
	StageCompare,
	StageCompareOneVsRest,
	StageCompareOneVsRestAll,
	StageSweep,
	StagePermutationTest,
	StageImpressions,
	StageGIMine,
	StageDrillDown,
}

// Drill-down counter families, pre-registered by Default() so the
// explorer's metrics appear at zero before the first query.
const (
	// DrillDownRunsCounterName counts completed drill-down runs.
	DrillDownRunsCounterName = "opmap_drilldown_runs_total"
	// DrillDownNodesCounterName counts frontier nodes expanded across
	// all drill-down runs (the planner's unit of work).
	DrillDownNodesCounterName = "opmap_drilldown_nodes_total"
)

// Stage opens a timing span for the named pipeline stage and returns
// the closer. Idiomatic use is one line at the top of the entry point:
//
//	defer obsv.Stage(obsv.StageCompare)()
func Stage(name string) func() {
	h := Default().Histogram(StageHistogramName, nil, "stage", name)
	start := time.Now()
	return func() { h.ObserveSince(start) }
}

var hotArmed atomic.Bool

// ArmHot enables (or disables) hot-path instrumentation process-wide:
// the per-cube and per-attribute timers consulted via HotArmed. It is
// off by default so steady-state serving pays one atomic load per
// loop iteration and nothing else.
func ArmHot(on bool) { hotArmed.Store(on) }

// HotArmed reports whether hot-path instrumentation is armed.
func HotArmed() bool { return hotArmed.Load() }
