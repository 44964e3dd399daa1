package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// requestTimeout bounds one request, so a stuck server fails the run
// well inside the benchmark's time limit instead of hanging it.
const requestTimeout = 60 * time.Second

// outcome is what the client saw for one request.
type outcome struct {
	kind  string
	at    time.Time     // when the request was sent
	lat   time.Duration // client send to last body byte
	bytes int
	err   error     // nil when the answer passed its checks
	body  []byte    // kept for checkEager requests only
	delta []float64 // registry deltas across the request (traced runs)
	id    string    // X-Request-Id
}

// client is the single closed-loop analyst: one keep-alive connection,
// each request sent only after the previous answer was read.
type client struct {
	http *http.Client
	tr   *http.Transport
}

func newClient() *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: requestTimeout}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// runPlan sends every request of the plan in order and checks each
// answer. bodies holds the pre-encoded ingest batch bodies, so the
// client's own encoding is never timed. A traced run records a request
// span per request with the registry deltas across it.
func (c *client) runPlan(ctx context.Context, base string, plan []request, bodies [][]byte, tr *tracer, pr *probe, pass string, k *canary) ([]outcome, time.Duration, error) {
	out := make([]outcome, len(plan))
	var lastSeq uint64
	start := time.Now()
	for i, rq := range plan {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		method, body := http.MethodGet, []byte(nil)
		switch rq.Kind {
		case kindDrill:
			method, body = http.MethodPost, rq.Body
		case kindIngest:
			method, body = http.MethodPost, bodies[rq.Batch]
		}
		req, err := http.NewRequestWithContext(ctx, method, base+rq.URL, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		id := pass + strconv.Itoa(i)
		req.Header.Set("X-Request-Id", id)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		k.tick()
		before := pr.read()
		t0 := time.Now()
		resp, err := c.http.Do(req)
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		t1 := time.Now()
		o := outcome{kind: rq.Kind, at: t0, lat: t1.Sub(t0), bytes: len(data), id: id}
		if pr != nil {
			o.delta = pr.since(before)
			tr.record("request", id, t0, t1, pr.named(o.delta))
		}
		switch {
		case err != nil:
			o.err = err
		case resp.StatusCode != http.StatusOK:
			o.err = fmt.Errorf("%s %s: status %d: %.200s", method, rq.URL, resp.StatusCode, data)
		default:
			o.err = checkAnswer(rq, data, &lastSeq)
		}
		if rq.Check == checkEager {
			o.body = data
		}
		out[i] = o
	}
	return out, time.Since(start) - k.total, nil
}

// Answer shapes, decoded only as far as the checks need.
type scoreAnswer struct {
	Name string `json:"name"`
}

type compareAnswer struct {
	Attr     string        `json:"attr"`
	Label1   string        `json:"label1"`
	Label2   string        `json:"label2"`
	Class    string        `json:"class"`
	Partial  bool          `json:"partial"`
	Ranked   []scoreAnswer `json:"ranked"`
	Property []scoreAnswer `json:"property"`
}

type sweepAnswer struct {
	Attr        string            `json:"attr"`
	Partial     bool              `json:"partial"`
	Skipped     []json.RawMessage `json:"skipped"`
	Comparisons []compareAnswer   `json:"comparisons"`
}

type drillAnswer struct {
	Attr     string            `json:"attr"`
	Partial  bool              `json:"partial"`
	Expanded int               `json:"expanded"`
	Findings []json.RawMessage `json:"findings"`
}

type ingestAnswer struct {
	Accepted int    `json:"accepted"`
	Seq      uint64 `json:"seq"`
}

// checkAnswer validates one 200 answer against its request: it names
// the asked attribute and values, is complete (not a partial result),
// and ranks something. Ingest acknowledgements must accept the whole
// batch under the next WAL sequence number.
func checkAnswer(rq request, data []byte, lastSeq *uint64) error {
	switch rq.Kind {
	case kindCompare:
		var a compareAnswer
		if err := json.Unmarshal(data, &a); err != nil {
			return fmt.Errorf("compare answer: %w", err)
		}
		q, _ := url.ParseQuery(rq.URL[len("/api/compare?"):])
		v1, v2 := q.Get("v1"), q.Get("v2")
		switch {
		case a.Attr != rq.Attr || a.Class != q.Get("class"):
			return fmt.Errorf("compare %s: answer names %s/%s", rq.URL, a.Attr, a.Class)
		case !(a.Label1 == v1 && a.Label2 == v2) && !(a.Label1 == v2 && a.Label2 == v1):
			return fmt.Errorf("compare %s: answer compares %s vs %s", rq.URL, a.Label1, a.Label2)
		case a.Partial || len(a.Ranked) == 0:
			return fmt.Errorf("compare %s: partial=%v with %d ranked", rq.URL, a.Partial, len(a.Ranked))
		}
		if rq.Check == checkPlanted {
			return checkPlantedAnswer(a)
		}
	case kindSweep:
		var a sweepAnswer
		if err := json.Unmarshal(data, &a); err != nil {
			return fmt.Errorf("sweep answer: %w", err)
		}
		if a.Attr != rq.Attr || a.Partial || len(a.Comparisons)+len(a.Skipped) != rq.Values || len(a.Comparisons) == 0 {
			return fmt.Errorf("sweep %s: attr %s partial=%v, %d compared + %d skipped of %d values",
				rq.URL, a.Attr, a.Partial, len(a.Comparisons), len(a.Skipped), rq.Values)
		}
	case kindDrill:
		var a drillAnswer
		if err := json.Unmarshal(data, &a); err != nil {
			return fmt.Errorf("drill answer: %w", err)
		}
		if a.Attr != rq.Attr || a.Partial || a.Expanded == 0 {
			return fmt.Errorf("drill on %s: attr %s partial=%v expanded=%d", rq.Attr, a.Attr, a.Partial, a.Expanded)
		}
	case kindIngest:
		var a ingestAnswer
		if err := json.Unmarshal(data, &a); err != nil {
			return fmt.Errorf("ingest answer: %w", err)
		}
		if a.Accepted != batchRows || a.Seq != *lastSeq+1 {
			return fmt.Errorf("ingest batch %d: accepted %d as seq %d after seq %d", rq.Batch, a.Accepted, a.Seq, *lastSeq)
		}
		*lastSeq = a.Seq
	}
	return nil
}

// checkPlantedAnswer is the paper's case-study result: the planted
// Time-of-Call explains ph2's extra drops, and Phone-Hardware-Version,
// which the phone model determines, is set aside as a property
// attribute rather than ranked.
func checkPlantedAnswer(a compareAnswer) error {
	if a.Ranked[0].Name != "Time-of-Call" {
		return fmt.Errorf("planted compare ranks %s first, want Time-of-Call", a.Ranked[0].Name)
	}
	for _, p := range a.Property {
		if p.Name == "Phone-Hardware-Version" {
			for _, r := range a.Ranked {
				if r.Name == p.Name {
					return fmt.Errorf("planted compare ranks the property attribute %s", p.Name)
				}
			}
			return nil
		}
	}
	return fmt.Errorf("planted compare does not set Phone-Hardware-Version aside as a property attribute")
}
