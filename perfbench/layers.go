package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// layerMetric is one per-layer number of a traced run, with the base it
// was computed over and the end-to-end metric it should move.
type layerMetric struct {
	name  string
	unit  string
	value float64
	base  string
	moves string // end-to-end metric; "" for tracing overhead
}

// layerSpecs fixes the per-layer metrics, their units and the
// end-to-end metric each should move, in report order. BENCHMARK.json
// lists the same names (checked by TestBenchmarkJSONMatches).
var layerSpecs = []struct{ name, unit, moves string }{
	{"dataset.load_s", "s", "setup_s"},
	{"discretize.s", "s", "setup_s"},
	{"rulecube.store_build_s", "s", "setup_s"},
	{"rulecube.setup_scans", "count", "setup_s"},
	{"rulecube.setup_cubes_built", "count", "setup_s"},
	{"rulecube.scans", "count", "compare_p50_ms"},
	{"rulecube.cubes_built", "count", "compare_p50_ms"},
	{"rulecube.scans_per_compare", "ratio", "compare_p50_ms"},
	{"rulecube.batch_build_s", "s", "other_p50_ms"},
	{"engine.cube_hits", "count", "compare_p50_ms"},
	{"engine.cube_misses", "count", "compare_p50_ms"},
	{"engine.cube_hit_ratio", "ratio", "requests_per_s"},
	{"engine.cube_evictions", "count", "compare_p50_ms"},
	{"engine.lazy_build_s", "s", "compare_p90_ms"},
	{"engine.result_hits", "count", "compare_p50_ms"},
	{"engine.result_misses", "count", "compare_p50_ms"},
	{"engine.result_invalidations", "count", "compare_p50_ms"},
	{"compare.self_ms_p50", "ms", "compare_p50_ms"},
	{"compare.sweep_self_ms_p50", "ms", "other_p50_ms"},
	{"drill.self_ms_p50", "ms", "other_p50_ms"},
	{"drill.nodes_per_run", "ratio", "other_p50_ms"},
	{"server.handler_ms_p50", "ms", "compare_p50_ms"},
	{"server.overhead_ms_p50", "ms", "compare_p50_ms"},
	{"server.transport_ms_p50", "ms", "compare_p50_ms"},
	{"server.response_bytes", "bytes", "compare_p50_ms"},
	{"server.ingest_rows_per_s", "rows/s", "requests_per_s"},
	{"wal.append_ms_p50", "ms", "other_p50_ms"},
	{"wal.fsync_ms_p50", "ms", "other_p50_ms"},
	{"wal.records", "count", "other_p50_ms"},
	{"session.append_ms_p50", "ms", "other_p50_ms"},
	{"session.rows_appended", "count", "other_p50_ms"},
	{"host.setup_speed", "ratio", ""},
	{"host.sequence_speed", "ratio", ""},
}

// overheadPrefix names the tracing-overhead metrics: traced minus
// untraced, one per end-to-end metric.
const overheadPrefix = "trace_overhead."

// endToEndNames lists the end-to-end metrics in report order.
var endToEndNames = []string{"setup_s", "requests_per_s", "compare_p50_ms", "compare_p90_ms", "other_p50_ms", "other_p90_ms", "peak_rss_mb"}

// perLayer computes every per-layer metric of a traced pass. Stage and
// build times come from the program's own histograms as deltas across
// each request; handler, WAL and session times from the benchmark's
// spans. Self times subtract the lazy and batch cube builds that ran
// inside the same request.
func perLayer(wl *benchWorkload, p *pass, traced, plain map[string]metric) []layerMetric {
	dur := map[string]map[string]float64{} // span name → request id → ms
	setup := map[string]float64{}
	for _, s := range p.spans {
		if s.Req == "setup" {
			setup[s.Name] = (s.End - s.Start) / 1e3
			continue
		}
		if dur[s.Name] == nil {
			dur[s.Name] = map[string]float64{}
		}
		dur[s.Name][s.Req] = s.End - s.Start
	}
	var total [numSeries]float64
	var cmpScans, nCmp float64
	var cmpSelf, sweepSelf, drillSelf, handler, overhead, transport, respBytes, fsync, walMs, sessMs []float64
	var rows, ingestMs float64
	for _, o := range p.outs {
		for i, v := range o.delta {
			total[i] += v
		}
		builds := (o.delta[sLazyBuild] + o.delta[sBatchBuild]) * 1e3
		h, hasH := dur["server"][o.id]
		lat := float64(o.lat.Nanoseconds()) / 1e6
		switch o.kind {
		case kindCompare:
			nCmp++
			cmpScans += o.delta[sScans]
			cmpSelf = append(cmpSelf, o.delta[sStageCompare]*1e3-builds)
			respBytes = append(respBytes, float64(o.bytes))
			if hasH {
				handler = append(handler, h)
				overhead = append(overhead, h-o.delta[sStageCompare]*1e3)
				transport = append(transport, lat-h)
			}
		case kindSweep:
			sweepSelf = append(sweepSelf, o.delta[sStageSweep]*1e3-builds)
		case kindDrill:
			drillSelf = append(drillSelf, o.delta[sStageDrill]*1e3-builds)
		case kindIngest:
			if o.err == nil {
				rows += batchRows
			}
			ingestMs += lat
			fsync = append(fsync, o.delta[sFsync]*1e3)
			walMs = append(walMs, dur["wal.append"][o.id])
			sessMs = append(sessMs, dur["session.append"][o.id])
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := func(xs []float64, what string) string { return fmt.Sprintf("p50 of %d %s", len(xs), what) }
	hits, misses := total[sCubeHits], total[sCubeMisses]
	vals := map[string][2]any{
		"dataset.load_s":              {setup["dataset.load"], "traced set-up"},
		"discretize.s":                {setup["discretize"], "traced set-up"},
		"rulecube.store_build_s":      {setup["engine.build"], "traced set-up"},
		"rulecube.setup_scans":        {p.setupD[sScans], "dataset scans during the traced set-up"},
		"rulecube.setup_cubes_built":  {p.setupD[sCubesBuilt], "cubes counted during the traced set-up"},
		"rulecube.scans":              {total[sScans], fmt.Sprintf("over %d requests", len(p.outs))},
		"rulecube.cubes_built":        {total[sCubesBuilt], fmt.Sprintf("over %d requests", len(p.outs))},
		"rulecube.scans_per_compare":  {ratio(cmpScans, nCmp), fmt.Sprintf("%.0f scans / %.0f compares", cmpScans, nCmp)},
		"rulecube.batch_build_s":      {total[sBatchBuild], "sum of opmap_batch_build_seconds"},
		"engine.cube_hits":            {hits, "cube cache lookups served resident"},
		"engine.cube_misses":          {misses, "cube cache lookups that built or joined a build"},
		"engine.cube_hit_ratio":       {ratio(hits, hits+misses), fmt.Sprintf("%.0f hits / %.0f lookups", hits, hits+misses)},
		"engine.cube_evictions":       {total[sCubeEvictions], fmt.Sprintf("cube budget %d bytes", wl.cubeCacheBytes)},
		"engine.lazy_build_s":         {total[sLazyBuild], "sum of opmap_lazy_build_seconds"},
		"engine.result_hits":          {total[sResultHits], fmt.Sprintf("%.0f hits / %.0f lookups", total[sResultHits], total[sResultHits]+total[sResultMisses])},
		"engine.result_misses":        {total[sResultMisses], "result cache lookups that computed"},
		"engine.result_invalidations": {total[sResultInval], "entries dropped by ingest epoch bumps"},
		"compare.self_ms_p50":         {median(cmpSelf), n(cmpSelf, "compares, stage minus cube builds")},
		"compare.sweep_self_ms_p50":   {median(sweepSelf), n(sweepSelf, "sweeps, stage minus cube builds")},
		"drill.self_ms_p50":           {median(drillSelf), n(drillSelf, "drills, stage minus cube builds")},
		"drill.nodes_per_run":         {ratio(total[sDrillNodes], total[sDrillRuns]), fmt.Sprintf("%.0f nodes / %.0f runs", total[sDrillNodes], total[sDrillRuns])},
		"server.handler_ms_p50":       {median(handler), n(handler, "compare handler spans")},
		"server.overhead_ms_p50":      {median(overhead), n(overhead, "compares, handler minus compare stage")},
		"server.transport_ms_p50":     {median(transport), n(transport, "compares, client latency minus handler")},
		"server.response_bytes":       {median(respBytes), n(respBytes, "compare bodies")},
		"server.ingest_rows_per_s":    {ratio(rows, ingestMs/1e3), fmt.Sprintf("%.0f rows / %.1f ms of ingest requests", rows, ingestMs)},
		"wal.append_ms_p50":           {median(walMs), n(walMs, "wal.append spans")},
		"wal.fsync_ms_p50":            {median(fsync), n(fsync, "ingests, opmap_wal_fsync_seconds delta")},
		"wal.records":                 {total[sFsyncs], "records appended (one fsync each)"},
		"session.append_ms_p50":       {median(sessMs), n(sessMs, "session.append spans")},
		"session.rows_appended":       {rows, fmt.Sprintf("%d acknowledged batches", len(sessMs))},
		"host.setup_speed":            {p.speeds[0], "canary speed during the traced set-up (1 = reference host)"},
		"host.sequence_speed":         {p.speed, "canary speed during the traced sequence"},
	}
	// Timings are scaled to the canary's reference speed like the
	// end-to-end metrics: set-up stages by the set-up's speed, the rest
	// by the sequence's.
	var out []layerMetric
	for _, s := range layerSpecs {
		v := vals[s.name]
		value := v[0].(float64)
		switch {
		case s.moves == "setup_s" && s.unit == "s":
			value *= p.speeds[0]
		case s.unit == "s" || s.unit == "ms":
			value *= p.speed
		case s.unit == "rows/s":
			value /= p.speed
		}
		out = append(out, layerMetric{name: s.name, unit: s.unit, value: value, base: v[1].(string), moves: s.moves})
	}
	for _, name := range endToEndNames {
		out = append(out, layerMetric{
			name:  overheadPrefix + name,
			unit:  plain[name].Unit,
			value: traced[name].Value - plain[name].Value,
			base:  fmt.Sprintf("traced %.4g - untraced %.4g", traced[name].Value, plain[name].Value),
		})
	}
	// Each layer's share of the end-to-end metric it should move,
	// measured in the traced pass.
	for i, l := range out {
		e, ok := traced[l.moves]
		if !ok || e.Unit != l.unit || e.Value == 0 {
			continue
		}
		out[i].base += fmt.Sprintf("; %.1f%% of traced %s %.4g %s", 100*l.value/e.Value, l.moves, e.Value, e.Unit)
	}
	return out
}

// writeTrace writes the span file and the per-layer table of a traced
// run under traceDir, and prints the table to stderr.
func writeTrace(o options, spans []span, layers []layerMetric) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := writeSpans(stem+".spans.jsonl", spans); err != nil {
		return err
	}
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tvalue\tunit\tshould move\tbase\n")
	for _, l := range layers {
		moves := l.moves
		if moves == "" {
			moves = "-"
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\n", l.name, l.value, l.unit, moves, l.base)
	}
	tw.Flush()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d per-layer table (%s.layers.txt):\n%s", o.workload, o.seed, stem, b.String())
	return os.WriteFile(stem+".layers.txt", []byte(b.String()), 0o644)
}
