package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"opmap/internal/workload"
)

// Request kinds of a plan. The first request of every plan is the
// planted ph1-vs-ph2 compare, kind kindCompare with check checkPlanted.
const (
	kindCompare = "compare" // GET /api/compare?attr&v1&v2
	kindSweep   = "sweep"   // GET /api/compare?all_values=1
	kindDrill   = "drill"   // POST /api/drilldown
	kindIngest  = "ingest"  // POST /api/ingest

	checkPlanted = "planted" // Time-of-Call ranks first, hardware version set aside
	checkEager   = "eager"   // body must equal an eager session's answer
)

// request is one step of a plan. The measured process replays plans
// verbatim, so the same seed always sends the same bytes in the same
// order.
type request struct {
	Kind  string          `json:"kind"`
	URL   string          `json:"url"`             // path and query
	Body  json.RawMessage `json:"body,omitempty"`  // drilldown body
	Batch int             `json:"batch,omitempty"` // ingest batch index
	Check string          `json:"check,omitempty"`
	// Attr and Values let the client check the answer names what was
	// asked: the comparison attribute, and for a sweep how many values
	// it must cover (compared plus skipped).
	Attr   string `json:"attr"`
	Values int    `json:"values,omitempty"`
}

// benchWorkload is one traffic mix over one engine configuration.
type benchWorkload struct {
	name string
	// other is the request kind whose latency the other_p50_ms and
	// other_p90_ms metrics report on this workload.
	other string
	// lazy selects the on-demand engine with a cubeCacheBytes LRU;
	// otherwise every 1-D and pair cube is built at set-up.
	lazy           bool
	cubeCacheBytes int64
	// share makes one request in share of the other kind; the rest
	// are pairwise compares.
	share int
	// perSecond sizes the plan: requests = perSecond × --seconds. It is
	// a planning constant, never a measurement, so the sequence (and
	// every work counter) depends only on seed and --seconds.
	perSecond int
	// sample is how many compares the lazy workload re-asks an eager
	// session after the run; their bodies must match byte for byte.
	sample int
	plan   func(p *planner)
}

var workloads = map[string]*benchWorkload{
	"eager-resident": {
		name: "eager-resident", other: kindSweep, share: 5, perSecond: 1200,
		plan: planEager,
	},
	"lazy-evicting": {
		name: "lazy-evicting", other: kindDrill, share: 2, lazy: true, cubeCacheBytes: 1 << 20, perSecond: 60, sample: 12,
		plan: planLazy,
	},
	"ingest-interleaved": {
		name: "ingest-interleaved", other: kindIngest, share: 5, perSecond: 150,
		plan: planIngest,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ingestBatches returns how many ingest batches a plan of n requests
// sends.
func (w *benchWorkload) ingestBatches(n int) int {
	if w.other != kindIngest {
		return 0
	}
	return w.otherCount(n)
}

// otherCount is how many of a plan's n requests are of the other kind;
// the first request is always the planted compare.
func (w *benchWorkload) otherCount(n int) int { return (n - 1) / w.share }

// planner carries what every plan generator needs.
type planner struct {
	rng *rand.Rand
	sch schema
	n   int // requests in the plan, the planted check included
	out []request
	wl  *benchWorkload
}

// makePlan builds the workload's request sequence of n requests.
func (w *benchWorkload) makePlan(rng *rand.Rand, sch schema, n int) []request {
	p := &planner{rng: rng, sch: sch, n: n, wl: w}
	p.out = append(p.out, plantedCompare())
	w.plan(p)
	if w.sample > 0 {
		var cmps []int
		for i, r := range p.out[1:] {
			if r.Kind == kindCompare {
				cmps = append(cmps, i+1)
			}
		}
		for _, j := range rng.Perm(len(cmps))[:min(w.sample, len(cmps))] {
			p.out[cmps[j]].Check = checkEager
		}
	}
	return p.out
}

// plantedCompare is the paper's case-study question: why does ph2 drop
// more calls than ph1? Time-of-Call must rank first and the hardware
// version, a property of the phone, must be set aside.
func plantedCompare() request {
	r := compareReq("Phone-Model", "ph1", "ph2", workload.ClassDropped, nil)
	r.Check = checkPlanted
	return r
}

// kinds returns the kinds of requests 1..n-1 in a seeded order with
// exactly otherCount(n) of the other kind.
func (p *planner) kinds() []string {
	rest := p.n - 1
	ks := make([]string, rest)
	h := p.wl.otherCount(p.n)
	for i := range ks {
		if i < h {
			ks[i] = p.wl.other
		} else {
			ks[i] = kindCompare
		}
	}
	p.rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

var classes = []string{workload.ClassOK, workload.ClassDropped, workload.ClassSetupFailed}

// compareKey is one pairwise question: attribute, two of its values and
// a class.
type compareKey struct{ attr, v1, v2, class string }

// comparePool lists every pairwise question over the categorical
// attributes except the planted one, in seeded order. Walking it
// cyclically keeps result-cache keys distinct for len(pool) requests.
func (p *planner) comparePool() []compareKey {
	var pool []compareKey
	for _, a := range p.sch.Cat {
		vals := p.sch.Values[a]
		for i := 0; i < len(vals); i++ {
			for j := i + 1; j < len(vals); j++ {
				for _, c := range classes {
					k := compareKey{a, vals[i], vals[j], c}
					if a == "Phone-Model" && c == workload.ClassDropped &&
						((vals[i] == "ph1" && vals[j] == "ph2") || (vals[i] == "ph2" && vals[j] == "ph1")) {
						continue
					}
					pool = append(pool, k)
				}
			}
		}
	}
	p.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

func compareReq(attr, v1, v2, class string, attrs []string) request {
	q := url.Values{"attr": {attr}, "v1": {v1}, "v2": {v2}, "class": {class}}
	if len(attrs) > 0 {
		q.Set("attrs", strings.Join(attrs, ","))
	}
	return request{Kind: kindCompare, URL: "/api/compare?" + q.Encode(), Attr: attr}
}

// planEager: pairwise compares and all-values sweeps over resident
// cubes. Every key is distinct within DefaultResultCacheEntries (256)
// requests: compares walk the shuffled pool of ~3,400 questions and
// sweeps a shuffled pool of 240 (attribute, class) pairs, of which any
// 256 requests hold about 51.
func planEager(p *planner) {
	cmp := p.comparePool()
	type sweepKey struct{ attr, class string }
	var sweeps []sweepKey
	for _, a := range p.sch.Cat {
		for _, c := range classes {
			sweeps = append(sweeps, sweepKey{a, c})
		}
	}
	p.rng.Shuffle(len(sweeps), func(i, j int) { sweeps[i], sweeps[j] = sweeps[j], sweeps[i] })
	ci, si := 0, 0
	for _, k := range p.kinds() {
		if k == kindSweep {
			s := sweeps[si%len(sweeps)]
			si++
			q := url.Values{"attr": {s.attr}, "class": {s.class}, "all_values": {"1"}}
			p.out = append(p.out, request{Kind: kindSweep, URL: "/api/compare?" + q.Encode(), Attr: s.attr, Values: len(p.sch.Values[s.attr])})
			continue
		}
		c := cmp[ci%len(cmp)]
		ci++
		p.out = append(p.out, compareReq(c.attr, c.v1, c.v2, c.class, nil))
	}
}

// drillBody is the POST /api/drilldown request.
type drillBody struct {
	Attr     string   `json:"attr"`
	V1       string   `json:"v1"`
	V2       string   `json:"v2"`
	Class    string   `json:"class"`
	MaxDepth int      `json:"max_depth"`
	Beam     int      `json:"beam"`
	Attrs    []string `json:"attrs"`
}

// Drill knobs: two conditions deep with a beam of one, over drillAttrs
// candidate attributes. Every drill below expands exactly one frontier
// node, whose 3-D cubes (one per remaining candidate) the engine counts
// in one shared scan; the node budget is the engine default (256),
// which these drills never exhaust.
const (
	drillDepth = 2
	drillBeam  = 1
	drillAttrs = 20
)

// drillQuestion is a comparison that carries the generator's planted
// failure, with the attribute that explains it: the bad phone ph2 (and
// its hardware revision) against every other, explained by
// Time-of-Call; the morning against the rest of the day, explained by
// Phone-Model. Drills into comparisons without a planted effect expand
// a frontier only when noise happens to clear the confidence interval,
// about four times in ten, which would make drill latency bimodal.
type drillQuestion struct{ attr, v1, v2, explains string }

func drillQuestions() []drillQuestion {
	var qs []drillQuestion
	for i := 1; i <= numPhones; i++ {
		if i == 2 {
			continue
		}
		qs = append(qs,
			drillQuestion{"Phone-Model", "ph2", fmt.Sprintf("ph%d", i), "Time-of-Call"},
			drillQuestion{"Phone-Hardware-Version", "hw-rev-2", fmt.Sprintf("hw-rev-%d", i), "Time-of-Call"})
	}
	return append(qs,
		drillQuestion{"Time-of-Call", "morning", "afternoon", "Phone-Model"},
		drillQuestion{"Time-of-Call", "morning", "evening", "Phone-Model"})
}

// planLazy: pairwise compares on uniformly drawn attributes and value
// pairs against a cube cache far smaller than the pair-cube working
// set, and drill-downs into the planted-failure comparisons, each over
// its own seeded set of candidate attributes, so every key is distinct.
func planLazy(p *planner) {
	cmp := p.comparePool()
	qs := drillQuestions()
	ci := 0
	for _, k := range p.kinds() {
		if k == kindCompare {
			c := cmp[ci%len(cmp)]
			ci++
			p.out = append(p.out, compareReq(c.attr, c.v1, c.v2, c.class, nil))
			continue
		}
		q := qs[p.rng.Intn(len(qs))]
		cand := []string{q.explains}
		for _, i := range p.rng.Perm(len(p.sch.Attrs)) {
			if a := p.sch.Attrs[i]; a != q.attr && a != q.explains && len(cand) < drillAttrs {
				cand = append(cand, a)
			}
		}
		sort.Strings(cand)
		body, _ := json.Marshal(drillBody{
			Attr: q.attr, V1: q.v1, V2: q.v2, Class: workload.ClassDropped,
			MaxDepth: drillDepth, Beam: drillBeam, Attrs: cand,
		})
		p.out = append(p.out, request{Kind: kindDrill, URL: "/api/drilldown", Body: body, Attr: q.attr})
	}
}

// Hot set of the ingest workload: hotUnrestricted compares that rank
// every attribute (so every batch invalidates them) and hotRestricted
// compares on noise attributes restricted to hotAttrs noise attributes
// (so only full batches do; sparse ones leave them cached). A
// restricted compare costs about a third of an unrestricted one; at
// five restricted to one, compare_p50_ms falls inside the restricted
// mode and compare_p90_ms inside the unrestricted one, not on the step
// between them, where a percentile jumps from seed to seed.
const (
	hotUnrestricted = 4
	hotRestricted   = 20
	hotAttrs        = 6
)

// planIngest: ingest batches in file order interleaved with compares
// drawn uniformly from a seeded hot set.
func planIngest(p *planner) {
	var hot []request
	cmp := p.comparePool()
	for _, c := range cmp {
		if len(hot) == hotUnrestricted {
			break
		}
		if !strings.HasPrefix(c.attr, "Param-") {
			hot = append(hot, compareReq(c.attr, c.v1, c.v2, c.class, nil))
		}
	}
	for _, c := range cmp {
		if len(hot) == hotUnrestricted+hotRestricted {
			break
		}
		if !strings.HasPrefix(c.attr, "Param-") {
			continue
		}
		var attrs []string
		for _, i := range p.rng.Perm(len(p.sch.Noise)) {
			if a := p.sch.Noise[i]; a != c.attr && len(attrs) < hotAttrs {
				attrs = append(attrs, a)
			}
		}
		sort.Strings(attrs)
		hot = append(hot, compareReq(c.attr, c.v1, c.v2, c.class, attrs))
	}
	b := 0
	for _, k := range p.kinds() {
		if k == kindIngest {
			p.out = append(p.out, request{Kind: kindIngest, URL: "/api/ingest", Batch: b})
			b++
			continue
		}
		p.out = append(p.out, hot[p.rng.Intn(len(hot))])
	}
}
