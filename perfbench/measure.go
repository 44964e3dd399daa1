package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"opmap"
	"opmap/internal/obsv"
	"opmap/internal/server"
	"opmap/internal/wal"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// inputs are the generated files, read once.
type inputs struct {
	csv     string
	walRoot string
	plan    []request
	batches [][][]string
	bodies  [][]byte // ingest request bodies, encoded before timing starts
}

func loadInputs(dir string) (*inputs, error) {
	in := &inputs{csv: filepath.Join(dir, "inputs", csvFile), walRoot: filepath.Join(dir, "wal")}
	if err := readJSON(filepath.Join(dir, "inputs", planFile), &in.plan); err != nil {
		return nil, fmt.Errorf("reading plan: %w", err)
	}
	if err := readJSON(filepath.Join(dir, "inputs", batchesFile), &in.batches); err != nil {
		return nil, fmt.Errorf("reading batches: %w", err)
	}
	for _, b := range in.batches {
		body, err := json.Marshal(map[string][][]string{"rows": b})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// pass is one served sequence: what the client saw and what the
// end-of-run checks found.
type pass struct {
	outs     []outcome
	wall     time.Duration // sequence wall time, canary units excluded
	setups   []float64     // raw set-up seconds
	speeds   []float64     // canary speed during each set-up
	speed    float64       // canary speed during the sequence
	seq      *canary       // the sequence's canary units
	rssMiB   float64
	failures []string
	spans    []span
	setupD   []float64 // registry deltas across the traced set-up
}

func (p *pass) failed() int {
	n := len(p.failures)
	for _, o := range p.outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

// report prints the pass's failed requests and checks to stderr.
func (p *pass) report() {
	for _, o := range p.outs {
		if o.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: request failed:", o.err)
		}
	}
	for _, f := range p.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
}

// measure runs the untraced pass and, with o.trace, the traced one.
func measure(ctx context.Context, o options, dir string) (*result, error) {
	wl := workloads[o.workload]
	in, err := loadInputs(dir)
	if err != nil {
		return nil, err
	}
	plain, err := runPass(ctx, wl, in, setups, nil, nil, "u")
	if err != nil {
		return nil, err
	}
	plain.report()
	res := &result{Attempted: len(plain.outs), Failed: plain.failed()}
	e2e := endToEnd(wl, plain)
	res.Metrics = e2e
	if o.trace {
		tr, pr := newTracer(), newProbe()
		obsv.ArmHot(true)
		traced, err := runPass(ctx, wl, in, 1, tr, pr, "t")
		obsv.ArmHot(false)
		if err != nil {
			return nil, err
		}
		traced.report()
		res.Attempted += len(traced.outs)
		res.Failed += traced.failed()
		layers := perLayer(wl, traced, endToEnd(wl, traced), e2e)
		if err := writeTrace(o, traced.spans, layers); err != nil {
			return nil, err
		}
		res.Metrics = map[string]metric{}
		for _, l := range layers {
			res.Metrics[l.name] = metric{Value: l.value, Unit: l.unit}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runPass sets up n times (keeping the last instance), runs the plan
// against it and makes the end-of-run checks.
func runPass(ctx context.Context, wl *benchWorkload, in *inputs, n int, tr *tracer, pr *probe, tag string) (*pass, error) {
	p := &pass{}
	k := newCanary()
	var inst *instance
	for i := 0; i < n; i++ {
		freeMemory()
		resetPeakRSS()
		walDir := ""
		if wl.other == kindIngest {
			walDir = filepath.Join(in.walRoot, tag+strconv.Itoa(i))
		}
		before := pr.read()
		k.reset()
		stop := k.background()
		var err error
		inst, err = startInstance(ctx, wl, in.csv, walDir, tr)
		stop()
		if err != nil {
			return nil, err
		}
		p.speeds = append(p.speeds, k.speed())
		if pr != nil {
			p.setupD = pr.since(before)
		}
		p.setups = append(p.setups, inst.setup.Seconds())
		if i < n-1 {
			if err := inst.stop(); err != nil {
				return nil, err
			}
			inst = nil
		}
	}
	freeMemory()
	base := counts(inst.sess)
	c := newClient()
	p.seq = newCanary()
	outs, wall, err := c.runPlan(ctx, inst.base, in.plan, in.bodies, tr, pr, tag, p.seq)
	c.close()
	if err != nil {
		inst.stop()
		return nil, err
	}
	p.outs, p.wall, p.speed = outs, wall, p.seq.speed()
	p.rssMiB = peakRSSMiB()
	if wl.other == kindIngest {
		p.failures = append(p.failures, checkIngested(inst, base, in, outs)...)
	}
	walDir := ""
	if inst.log != nil {
		walDir = inst.log.Dir()
	}
	if err := inst.stop(); err != nil {
		return nil, err
	}
	inst = nil
	if walDir != "" {
		p.failures = append(p.failures, checkReplay(walDir, outs)...)
	}
	if wl.sample > 0 {
		fails, err := checkAgainstEager(ctx, in, outs)
		if err != nil {
			return nil, err
		}
		p.failures = append(p.failures, fails...)
	}
	if tr != nil {
		p.spans = tr.finish()
	}
	return p, nil
}

// freeMemory collects the previous set-up's garbage before the next
// phase, so no phase pays for another's heap.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// classCounts is a session's row count and class distribution.
type classCounts struct {
	rows    int
	classes map[string]int64
}

func counts(s *opmap.Session) classCounts {
	return classCounts{rows: s.NumRows(), classes: s.ClassDistribution()}
}

// checkIngested: the session holds the base rows plus every
// acknowledged batch, class by class.
func checkIngested(inst *instance, base classCounts, in *inputs, outs []outcome) []string {
	want := classCounts{rows: base.rows, classes: map[string]int64{}}
	for c, n := range base.classes {
		want.classes[c] = n
	}
	classIdx := -1
	for i, rq := range in.plan {
		if rq.Kind != kindIngest || outs[i].err != nil {
			continue
		}
		for _, row := range in.batches[rq.Batch] {
			if classIdx < 0 {
				classIdx = len(row) - 1
			}
			want.rows++
			want.classes[row[classIdx]]++
		}
	}
	got := counts(inst.sess)
	var fails []string
	if got.rows != want.rows {
		fails = append(fails, fmt.Sprintf("session holds %d rows, want %d base + acknowledged", got.rows, want.rows))
	}
	for c, n := range want.classes {
		if got.classes[c] != n {
			fails = append(fails, fmt.Sprintf("class %s: %d rows, want %d", c, got.classes[c], n))
		}
	}
	return fails
}

// checkReplay: replaying the run's WAL returns one record per
// acknowledged batch.
func checkReplay(dir string, outs []outcome) []string {
	acked := 0
	for _, o := range outs {
		if o.kind == kindIngest && o.err == nil {
			acked++
		}
	}
	lg, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return []string{fmt.Sprintf("reopening WAL: %v", err)}
	}
	defer lg.Close()
	n, err := lg.Replay(1, func(uint64, []byte) error { return nil })
	if err != nil {
		return []string{fmt.Sprintf("replaying WAL: %v", err)}
	}
	if n != acked {
		return []string{fmt.Sprintf("WAL replays %d records, %d batches acknowledged", n, acked)}
	}
	return nil
}

// checkAgainstEager re-asks the sampled compares of a lazy run of an
// eager session over the same CSV; every body must match byte for byte.
func checkAgainstEager(ctx context.Context, in *inputs, outs []outcome) ([]string, error) {
	sess, err := opmap.LoadCSVFile(in.csv, opmap.LoadOptions{Class: classAttr})
	if err != nil {
		return nil, err
	}
	if err := sess.Discretize(opmap.DiscretizeOptions{}); err != nil {
		return nil, err
	}
	if err := sess.BuildCubesOptions(ctx, opmap.BuildOptions{}); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Session: sess, Logger: obsv.Nop()})
	if err != nil {
		return nil, err
	}
	var fails []string
	for i, rq := range in.plan {
		if rq.Check != checkEager || outs[i].err != nil {
			continue
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, rq.URL, nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), outs[i].body) {
			fails = append(fails, fmt.Sprintf("lazy answer to %s differs from the eager session's (status %d)", rq.URL, rec.Code))
		}
	}
	return fails, nil
}

// endToEnd computes the user-facing metrics of a pass, every timing
// scaled to the canary's reference speed (see canary.go); the raw
// figures go to stderr.
func endToEnd(wl *benchWorkload, p *pass) map[string]metric {
	var cmp, other, rawCmp, rawOther []float64
	// The sequence's wall time at the reference speed: each request's
	// latency scaled by its own speed, the client's time between
	// requests by the sequence's.
	busy, scaledBusy := 0.0, 0.0
	for _, o := range p.outs {
		ms := float64(o.lat.Nanoseconds()) / 1e6
		scaled := ms * p.seq.speedAround(o.at, o.at.Add(o.lat))
		busy += ms
		scaledBusy += scaled
		switch o.kind {
		case kindCompare:
			cmp, rawCmp = append(cmp, scaled), append(rawCmp, ms)
		case wl.other:
			other, rawOther = append(other, scaled), append(rawOther, ms)
		}
	}
	setups := make([]float64, len(p.setups))
	for i, s := range p.setups {
		setups[i] = s * p.speeds[i]
	}
	rps := float64(len(p.outs)) / p.wall.Seconds()
	scaledWall := scaledBusy/1e3 + (p.wall.Seconds()-busy/1e3)*p.speed
	fmt.Fprintf(os.Stderr, "perfbench: raw set-up %.4g s (speeds %.3g), sequence speed %.3f: compare p50 %.4g p90 %.4g, %s p50 %.4g p90 %.4g ms, %.4g req/s\n",
		p.setups, p.speeds, p.speed, quantile(rawCmp, 0.5), quantile(rawCmp, 0.9), wl.other, quantile(rawOther, 0.5), quantile(rawOther, 0.9), rps)
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"requests_per_s": {float64(len(p.outs)) / scaledWall, "1/s"},
		"compare_p50_ms": {quantile(cmp, 0.5), "ms"},
		"compare_p90_ms": {quantile(cmp, 0.9), "ms"},
		"other_p50_ms":   {quantile(other, 0.5), "ms"},
		"other_p90_ms":   {quantile(other, 0.9), "ms"},
		"peak_rss_mb":    {p.rssMiB, "MiB"},
	}
}

// quantile interpolates linearly between closest ranks; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) tracking, so each
// pass reports its own peak. Kernels without the knob keep the
// process-wide peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
