package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"

	"opmap"
)

// Serving-path allocation fixtures. A pinned compare reads resident
// cubes and scans no rows, so everything it allocates is per-answer
// garbage: value tables, per-value breakdowns, the ranking, and the
// wire conversion. BenchmarkServeCompare reports it with -benchmem;
// TestServeAllocs gates it.

// discardWriter is a ResponseWriter that drops the body, so a
// measurement counts the handler's allocations and not a recorder's
// buffer growth (which depends on the response length).
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func (w *discardWriter) WriteHeader(status int) { w.status = status }

// serveFixture is an eager session behind Handler() with three request
// lists: every pairwise compare question, every value= one-vs-rest
// question and every all-values one-vs-rest question, each a distinct
// result-cache key.
type serveFixture struct {
	sess       *opmap.Session
	h          http.Handler
	compares   []*http.Request
	oneVsRests []*http.Request
	sweeps     []*http.Request
	// row is a valid record; appending it bumps every attribute and so
	// empties the result cache when a request list wraps around.
	row []string
}

func newServeFixture(tb testing.TB, sess *opmap.Session, split func(attr string) bool) *serveFixture {
	tb.Helper()
	srv, err := New(Config{Session: sess})
	if err != nil {
		tb.Fatal(err)
	}
	f := &serveFixture{sess: sess, h: srv.Handler()}
	class := sess.ClassAttribute()
	classes := sess.Classes()
	for _, a := range sess.Attributes() {
		if a == class {
			f.row = append(f.row, classes[0])
			continue
		}
		vals, err := sess.Values(a)
		if err != nil {
			tb.Fatal(err)
		}
		f.row = append(f.row, vals[0])
		if !split(a) {
			continue
		}
		for _, c := range classes {
			q := url.Values{"attr": {a}, "class": {c}, "all_values": {"1"}}
			f.sweeps = append(f.sweeps, httptest.NewRequest(http.MethodGet, "/api/compare?"+q.Encode(), nil))
			for _, v := range vals {
				q := url.Values{"attr": {a}, "class": {c}, "value": {v}}
				f.oneVsRests = append(f.oneVsRests, httptest.NewRequest(http.MethodGet, "/api/compare?"+q.Encode(), nil))
			}
		}
	}
	// Interleave the compare questions across attributes so any window
	// of the list splits on many attributes, as perfbench's shuffled
	// pool does.
	for pair := 0; ; pair++ {
		added := false
		for _, a := range sess.Attributes() {
			if a == class || !split(a) {
				continue
			}
			vals, _ := sess.Values(a)
			i, j, ok := nthPair(len(vals), pair)
			if !ok {
				continue
			}
			added = true
			for _, c := range classes {
				q := url.Values{"attr": {a}, "v1": {vals[i]}, "v2": {vals[j]}, "class": {c}}
				f.compares = append(f.compares, httptest.NewRequest(http.MethodGet, "/api/compare?"+q.Encode(), nil))
			}
		}
		if !added {
			break
		}
	}
	return f
}

// nthPair returns the n-th unordered value pair (i < j) of a domain of
// size card, in row-major order.
func nthPair(card, n int) (i, j int, ok bool) {
	for i = 0; i < card; i++ {
		if k := card - 1 - i; n < k {
			return i, i + 1 + n, true
		} else {
			n -= k
		}
	}
	return 0, 0, false
}

// serve sends one request and fails unless it answered 200.
func (f *serveFixture) serve(tb testing.TB, r *http.Request) {
	w := &discardWriter{h: make(http.Header)}
	f.h.ServeHTTP(w, r)
	if w.status != 0 && w.status != http.StatusOK {
		tb.Fatalf("%s: status %d", r.URL, w.status)
	}
}

// invalidate empties the session's result cache by appending one row.
func (f *serveFixture) invalidate(tb testing.TB) {
	if err := f.sess.Append([][]string{f.row}); err != nil {
		tb.Fatal(err)
	}
}

// callLogFixture is perfbench's schema at a test-sized row count: the
// call log with 8 phone models and 75 noise attributes, eager.
var (
	callLogOnce sync.Once
	callLogFix  *serveFixture
	callLogErr  error
)

func callLogServeFixture(tb testing.TB) *serveFixture {
	tb.Helper()
	callLogOnce.Do(func() {
		sess, _, err := opmap.GenerateCallLog(opmap.CallLogConfig{Seed: 1, Records: 20000, NumPhones: 8, NoiseAttrs: 75})
		if err == nil {
			err = sess.BuildCubes()
		}
		if err != nil {
			callLogErr = err
			return
		}
		callLogFix = newServeFixture(tb, sess, func(string) bool { return true })
	})
	if callLogErr != nil {
		tb.Fatal(callLogErr)
	}
	return callLogFix
}

// BenchmarkServeCompare measures one answer through Handler() over
// resident cubes: a pinned pairwise compare, a value= one-vs-rest
// compare and an all_values one-vs-rest sweep. Every iteration asks a question the result cache
// has not seen; when a request list wraps, the cache is emptied
// outside the timer.
func BenchmarkServeCompare(b *testing.B) {
	f := callLogServeFixture(b)
	for _, bc := range []struct {
		name string
		reqs []*http.Request
	}{
		{"pinned", f.compares},
		{"one_vs_rest", f.oneVsRests},
		{"all_values", f.sweeps},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.StopTimer()
			f.invalidate(b)
			b.ReportAllocs()
			b.StartTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(bc.reqs)
				if k == 0 && i > 0 {
					b.StopTimer()
					f.invalidate(b)
					b.StartTimer()
				}
				f.serve(b, bc.reqs[k])
			}
		})
	}
}

// cardinalityServeFixture builds an eager session over a 3,000-row
// table: six 8-valued split attributes s0..s5, twelve candidates
// c0..c11 of card values each, and a 3-class outcome. Requests split
// on the s attributes only, so two fixtures differ only in their
// candidates' cardinality.
func cardinalityServeFixture(tb testing.TB, card int) *serveFixture {
	tb.Helper()
	const splits, candidates, rows = 6, 12, 3000
	var sb strings.Builder
	for s := 0; s < splits; s++ {
		fmt.Fprintf(&sb, "s%d,", s)
	}
	for c := 0; c < candidates; c++ {
		fmt.Fprintf(&sb, "c%d,", c)
	}
	sb.WriteString("class\n")
	state := uint32(7)
	next := func(n int) int {
		state = state*1664525 + 1013904223
		return int(state>>8) % n
	}
	for r := 0; r < rows; r++ {
		for s := 0; s < splits; s++ {
			fmt.Fprintf(&sb, "x%d,", next(8))
		}
		for c := 0; c < candidates; c++ {
			fmt.Fprintf(&sb, "v%d,", (r+c)%card)
		}
		fmt.Fprintf(&sb, "k%d\n", next(3))
	}
	sess, err := opmap.LoadCSV(strings.NewReader(sb.String()), opmap.LoadOptions{Class: "class"})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sess.BuildCubes(); err != nil {
		tb.Fatal(err)
	}
	return newServeFixture(tb, sess, func(a string) bool { return strings.HasPrefix(a, "s") })
}

// costPerAnswer serves each of the first n+1 requests once, the first
// as a warm-up as testing.AllocsPerRun does, and returns the mean
// allocations (truncated, as AllocsPerRun reports them) and bytes
// allocated per answer over the other n. The list holds distinct cache
// keys, so none is answered from the result cache.
func costPerAnswer(t *testing.T, f *serveFixture, reqs []*http.Request, n int) (allocs, bytes float64) {
	t.Helper()
	if len(reqs) < n+1 {
		t.Fatalf("fixture has %d distinct requests, need %d", len(reqs), n+1)
	}
	f.invalidate(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f.serve(t, reqs[0])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs[1 : n+1] {
		f.serve(t, r)
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(n)), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// replayBody is a request body that can be rewound, so one request
// serves every iteration of a benchmark without allocating a reader.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// BenchmarkServeIngest measures one 100-row ingest request of
// perfbench's shape through Handler(): the body read and decode,
// the hook's ValidateBatch, and the response. The hook acknowledges
// without applying the batch; BenchmarkSessionAppend (package opmap)
// measures the apply.
func BenchmarkServeIngest(b *testing.B) {
	sess, body := benchIngest(b, 1000)
	hook := &sessionIngest{sess: sess}
	srv, err := New(Config{Session: sess, Ingest: hook.ingest})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	rb := &replayBody{}
	r := httptest.NewRequest(http.MethodPost, "/api/ingest", nil)
	r.Body, r.ContentLength = rb, int64(len(body))
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		rb.Reset(body)
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("ingest: status %d", w.status)
		}
	}
}
