package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"

	"opmap/internal/engine"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/wal"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one request share its request id; parents are
// resolved from the id when the spans are written out.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Req    string             `json:"req"`
	Start  float64            `json:"start_ms"` // since the tracer was made
	End    float64            `json:"end_ms"`
	Deltas map[string]float64 `json:"deltas,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs take the same code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(name, req string, start, end time.Time, deltas map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Req: req, Start: t.ms(start), End: t.ms(end), Deltas: deltas})
}

// wrapHandler times the server's handler per request as a "server"
// span; untraced, the handler is served unwrapped.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin("server", r.Header.Get("X-Request-Id"), 0)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// finish links each span to its parent: server → request, and the
// ingest callback's wal.append and session.append → server.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[string]map[string]int{}
	for _, s := range t.spans {
		if byReq[s.Req] == nil {
			byReq[s.Req] = map[string]int{}
		}
		byReq[s.Req][s.Name] = s.ID
	}
	parentOf := map[string]string{"server": "request", "wal.append": "server", "session.append": "server"}
	for i := range t.spans {
		s := &t.spans[i]
		if p, ok := parentOf[s.Name]; ok && s.Parent == 0 {
			s.Parent = byReq[s.Req][p]
		}
	}
	return t.spans
}

// Registry series the benchmark reads around each request. Every one
// is recorded by the program itself in obsv.Default(); with one client
// the change across a request belongs to that request.
const (
	sScans = iota
	sCubesBuilt
	sCubeHits
	sCubeMisses
	sCubeEvictions
	sLazyBuild
	sBatchBuild
	sResultHits
	sResultMisses
	sResultInval
	sStageCompare
	sStageSweep
	sStageDrill
	sDrillNodes
	sDrillRuns
	sFsync
	sFsyncs
	numSeries
)

var seriesNames = [numSeries]string{
	"scans", "cubes_built", "cube_hits", "cube_misses", "cube_evictions",
	"lazy_build_s", "batch_build_s", "result_hits", "result_misses", "result_invalidations",
	"stage_compare_s", "stage_sweep_s", "stage_drill_s", "drill_nodes", "drill_runs",
	"wal_fsync_s", "wal_fsyncs",
}

// probe reads the series; a nil *probe reads nothing.
type probe struct {
	reads [numSeries]func() float64
}

func newProbe() *probe {
	reg := obsv.Default()
	ctr := func(name string) func() float64 {
		c := reg.Counter(name)
		return func() float64 { return float64(c.Value()) }
	}
	sum := func(name string, labels ...string) func() float64 {
		h := reg.Histogram(name, nil, labels...)
		return func() float64 { return h.Sum() }
	}
	count := func(name string) func() float64 {
		h := reg.Histogram(name, nil)
		return func() float64 { return float64(h.Count()) }
	}
	p := &probe{}
	p.reads = [numSeries]func() float64{
		ctr(rulecube.CubeScansCounterName),
		ctr(rulecube.CubesBuiltCounterName),
		ctr(engine.CubeCacheHitsCounterName),
		ctr(engine.CubeCacheMissesCounterName),
		ctr(engine.CubeCacheEvictionsCounterName),
		sum(engine.LazyBuildHistogramName),
		sum(engine.BatchBuildHistogramName),
		ctr(engine.ResultCacheHitsCounterName),
		ctr(engine.ResultCacheMissesCounterName),
		ctr(engine.ResultCacheInvalidationsCounterName),
		sum(obsv.StageHistogramName, "stage", obsv.StageCompare),
		sum(obsv.StageHistogramName, "stage", obsv.StageCompareOneVsRestAll),
		sum(obsv.StageHistogramName, "stage", obsv.StageDrillDown),
		ctr(obsv.DrillDownNodesCounterName),
		ctr(obsv.DrillDownRunsCounterName),
		sum(wal.FsyncHistogramName),
		count(wal.FsyncHistogramName),
	}
	return p
}

func (p *probe) read() []float64 {
	if p == nil {
		return nil
	}
	v := make([]float64, numSeries)
	for i, r := range p.reads {
		v[i] = r()
	}
	return v
}

// since returns the change of every series from before.
func (p *probe) since(before []float64) []float64 {
	now := p.read()
	for i := range now {
		now[i] -= before[i]
	}
	return now
}

// named turns a delta vector into the request span's attribute map,
// leaving out series that did not move.
func (p *probe) named(d []float64) map[string]float64 {
	m := map[string]float64{}
	for i, v := range d {
		if v != 0 {
			m[seriesNames[i]] = v
		}
	}
	return m
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
