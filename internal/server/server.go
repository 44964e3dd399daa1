// Package server implements the opmapd HTTP daemon: JSON endpoints for
// overview, attribute detail, pairwise comparison, multi-condition
// drill-down and sweeps over one or more preloaded Sessions. The serving layer is hardened the way
// the paper's deployed system had to be (analysts querying
// pre-materialized cubes online, Section V.C): every request runs
// under a timeout, panics are converted to 500s without taking the
// process down, in-flight work is bounded with 429 load-shedding, and
// SIGTERM drains cleanly. Every request is also observable after the
// fact: the middleware counts requests, sheds, timeouts, panics and
// partial-result degradations into an obsv.Registry exposed at
// /metrics, and emits one structured log line per request carrying a
// propagated request id.
//
// A daemon can serve several datasets at once: each named Session has
// its own engine (eager store or lazy cube cache), and requests pick
// one with the dataset query parameter. Requests without the
// parameter go to the default dataset, so single-dataset URLs keep
// working unchanged.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"opmap"
	"opmap/internal/engine"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/wal"
)

// Metric families recorded by the request middleware.
const (
	metricRequests = "opmapd_requests_total"           // counter{path,status}
	metricDuration = "opmapd_request_duration_seconds" // histogram{path}
	metricSheds    = "opmapd_sheds_total"              // counter
	metricTimeouts = "opmapd_timeouts_total"           // counter
	metricPanics   = "opmapd_panics_total"             // counter
	metricPartials = "opmapd_partials_total"           // counter
	metricInflight = "opmapd_inflight"                 // gauge
	// metricIngestRows counts rows durably accepted through /api/ingest;
	// metricIngestSheds counts ingest batches rejected with 503 because
	// the apply queue was full (WAL backpressure).
	metricIngestRows  = "opmap_ingest_rows_total"  // counter
	metricIngestSheds = "opmap_ingest_sheds_total" // counter
)

// shedRetryAfterSeconds is the Retry-After hint attached to load-shed
// responses: both the middleware's 429 (too many requests in flight)
// and ingest's 503 (apply queue full). One second matches the drain
// rate of both queues under normal load.
const shedRetryAfterSeconds = 1

// ErrBackpressure is returned by a Config.Ingest callback when the
// dataset's bounded apply queue is full. The ingest endpoint maps it
// to 503 with a Retry-After header instead of a client error: the
// batch was NOT accepted and should be retried unchanged.
var ErrBackpressure = errors.New("server: ingest apply queue full")

// DefaultDatasetName is the registry name given to Config.Session, the
// single-dataset configuration form.
const DefaultDatasetName = "default"

// Config parameterizes a Server. At least one session (Session or an
// entry in Sessions) is required; zero values for the rest use the
// documented defaults.
type Config struct {
	// Session is the single-dataset form: the session is registered
	// under DefaultDatasetName and serves requests without a dataset
	// parameter.
	Session *opmap.Session
	// Sessions is the multi-dataset registry, name → preloaded
	// session. It may be combined with Session (which keeps the name
	// DefaultDatasetName).
	Sessions map[string]*opmap.Session
	// DefaultDataset names the session serving requests without a
	// dataset parameter. Empty means DefaultDatasetName when Session
	// is set, else the sole entry of Sessions; with several named
	// sessions and no Session it must be set explicitly.
	DefaultDataset string
	// RequestTimeout bounds each request's context. Zero means 10s.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently served requests; excess requests
	// are shed with 429. Zero means 16.
	MaxInFlight int
	// DrainTimeout bounds the graceful shutdown after the serve context
	// is canceled. Zero means 10s.
	DrainTimeout time.Duration
	// Logger receives one structured record per request plus handler
	// errors and panics. Nil discards.
	Logger *obsv.Logger
	// Metrics receives the request counters and latency histograms and
	// backs the /metrics endpoint. Nil means obsv.Default(), which also
	// carries the pipeline stage timings — so one scrape shows the
	// serving layer and the analysis stages together.
	Metrics *obsv.Registry
	// SnapshotStatus, when set, reports each dataset's snapshot state
	// ("loaded", "cold (reason)", ...) for /api/datasets.
	// Empty return values omit the field; nil disables it entirely —
	// the daemon wires this only when serving with a snapshot
	// directory.
	SnapshotStatus func(dataset string) string
	// Ingest, when set, enables POST /api/ingest: the callback must
	// durably append the batch to the named dataset (WAL first, then
	// the in-memory session) and return the assigned WAL sequence.
	// Return ErrBackpressure when the apply queue is full — the
	// endpoint answers 503 with a Retry-After header. Nil disables the
	// endpoint (405-free: it answers 503 "ingestion disabled").
	Ingest func(ctx context.Context, dataset string, rows [][]string) (uint64, error)
	// IngestStatus, when set, reports whether a dataset's WAL replay is
	// still in progress. While any dataset replays, /readyz answers 503
	// and names the replaying datasets, so load balancers hold traffic
	// until recovery finishes.
	IngestStatus func(dataset string) (replaying bool)
}

// Server is the hardened HTTP front end over a registry of Sessions.
type Server struct {
	sessions       map[string]*opmap.Session
	defaultName    string
	requestTimeout time.Duration
	drainTimeout   time.Duration
	sem            chan struct{}
	logger         *obsv.Logger
	metrics        *obsv.Registry
	snapStatus     func(dataset string) string
	ingest         func(ctx context.Context, dataset string, rows [][]string) (uint64, error)
	ingestStatus   func(dataset string) bool
	mux            *http.ServeMux

	ready    atomic.Bool
	draining atomic.Bool
}

// New builds a Server over the given config.
func New(cfg Config) (*Server, error) {
	sessions, defaultName, err := buildRegistry(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 16
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obsv.Nop()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obsv.Default()
	}
	s := &Server{
		sessions:       sessions,
		defaultName:    defaultName,
		requestTimeout: cfg.RequestTimeout,
		drainTimeout:   cfg.DrainTimeout,
		sem:            make(chan struct{}, cfg.MaxInFlight),
		logger:         cfg.Logger,
		metrics:        cfg.Metrics,
		snapStatus:     cfg.SnapshotStatus,
		ingest:         cfg.Ingest,
		ingestStatus:   cfg.IngestStatus,
		mux:            http.NewServeMux(),
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	for path, h := range map[string]handlerFunc{
		"/api/overview":  s.handleOverview,
		"/api/detail":    s.handleDetail,
		"/api/compare":   s.handleCompare,
		"/api/drilldown": s.handleDrilldown,
		"/api/sweep":     s.handleSweep,
		"/api/datasets":  s.handleDatasets,
		"/api/ingest":    s.handleIngest,
	} {
		s.mux.Handle(path, s.wrap(path, h))
		// Pre-register every status series wrap can emit so a scrape
		// right after startup already lists the full matrix at 0 and
		// dashboards never see a series appear mid-incident.
		for _, status := range []int{
			http.StatusOK,
			http.StatusBadRequest,
			http.StatusMethodNotAllowed,
			http.StatusTooManyRequests,
			http.StatusInternalServerError,
			http.StatusServiceUnavailable,
			http.StatusGatewayTimeout,
		} {
			s.metrics.Counter(metricRequests, "path", path, "status", strconv.Itoa(status))
		}
		s.metrics.Histogram(metricDuration, nil, "path", path)
	}
	// Outcome counters exist from the first scrape, not the first
	// incident.
	s.metrics.Counter(metricSheds)
	s.metrics.Counter(metricTimeouts)
	s.metrics.Counter(metricPanics)
	s.metrics.Counter(metricPartials)
	s.metrics.Gauge(metricInflight)
	// Engine cache series likewise: a fresh lazy daemon must already
	// expose its hit/miss/eviction counters at 0 so a scrape can assert
	// "startup built nothing".
	engine.PreRegister(s.metrics)
	// The cube-build and dataset-scan counters too: a snapshot warm
	// start must be able to prove "zero cubes built" with a scrape, and
	// a batch comparison must be able to prove "one shared scan", which
	// needs both series present at 0 rather than absent.
	s.metrics.Counter(rulecube.CubesBuiltCounterName)
	s.metrics.Counter(rulecube.CubeScansCounterName)
	s.metrics.Counter(rulecube.RowsCountedCounterName)
	// Shard-merge series: a shard-directory warm start must be able to
	// prove "N shards merged, zero cubes built" with a scrape.
	s.metrics.Histogram(opmap.ShardMergeHistogramName, nil)
	s.metrics.Counter(opmap.ShardsMergedCounterName)
	// Ingest series exist whether or not ingestion is enabled, so the
	// kill -9 smoke can assert opmap_wal_replayed_records_total moved
	// and dashboards can alert on sheds from the first scrape.
	s.metrics.Counter(metricIngestRows)
	s.metrics.Counter(metricIngestSheds)
	wal.PreRegister(s.metrics)
	s.ready.Store(true)
	return s, nil
}

// buildRegistry merges the single- and multi-dataset config forms into
// one name → session map and resolves the default dataset name.
func buildRegistry(cfg Config) (map[string]*opmap.Session, string, error) {
	sessions := make(map[string]*opmap.Session, len(cfg.Sessions)+1)
	for name, sess := range cfg.Sessions {
		if name == "" {
			return nil, "", fmt.Errorf("server: Config.Sessions contains an empty dataset name")
		}
		if sess == nil {
			return nil, "", fmt.Errorf("server: Config.Sessions[%q] is nil", name)
		}
		sessions[name] = sess
	}
	if cfg.Session != nil {
		if _, dup := sessions[DefaultDatasetName]; dup {
			return nil, "", fmt.Errorf("server: Config.Session conflicts with Sessions[%q]", DefaultDatasetName)
		}
		sessions[DefaultDatasetName] = cfg.Session
	}
	if len(sessions) == 0 {
		return nil, "", fmt.Errorf("server: at least one session is required (Config.Session or Config.Sessions)")
	}
	def := cfg.DefaultDataset
	if def == "" {
		switch {
		case cfg.Session != nil:
			def = DefaultDatasetName
		case len(sessions) == 1:
			for name := range sessions {
				def = name
			}
		default:
			return nil, "", fmt.Errorf("server: Config.DefaultDataset is required with multiple named sessions")
		}
	}
	if _, ok := sessions[def]; !ok {
		return nil, "", fmt.Errorf("server: default dataset %q is not registered", def)
	}
	return sessions, def, nil
}

// session resolves the dataset query parameter to a registered
// Session; absence selects the default dataset, so pre-registry URLs
// are unchanged.
func (s *Server) session(r *http.Request) (*opmap.Session, error) {
	name := r.URL.Query().Get("dataset")
	if name == "" {
		name = s.defaultName
	}
	sess, ok := s.sessions[name]
	if !ok {
		return nil, badRequest("unknown dataset %q (GET /api/datasets lists the served datasets)", name)
	}
	return sess, nil
}

// DatasetNames returns the registered dataset names, sorted.
func (s *Server) DatasetNames() []string {
	names := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Handler returns the server's root handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// EnablePprof registers the net/http/pprof handlers under
// /debug/pprof/ on the server's mux. Off by default: profiling
// endpoints expose internals and cost CPU, so opmapd gates this
// behind its -pprof flag.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// SetReady flips readiness (readyz), e.g. while cubes are rebuilt.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Serve accepts connections on ln until ctx is canceled, then drains:
// readyz starts failing (load balancers stop sending traffic), open
// requests get up to DrainTimeout to finish, and Serve returns nil on
// a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler: s.mux,
		// Bound header reads so idle half-open connections cannot pin
		// the listener; request bodies are bounded per-handler by the
		// request timeout.
		ReadHeaderTimeout: 5 * time.Second,
	}
	drainErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.draining.Store(true)
		shCtx, cancel := context.WithTimeout(context.Background(), s.drainTimeout)
		defer cancel()
		drainErr <- srv.Shutdown(shCtx)
	}()
	err := srv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-drainErr
}

// handlerFunc is an endpoint: it returns the response value to encode
// as JSON, or an error that the middleware maps to a status code.
type handlerFunc func(r *http.Request) (any, error)

// partialer marks response DTOs that can represent a degraded
// (partial) result, so the middleware can count and log degradations
// without inspecting concrete types.
type partialer interface{ partialResult() bool }

// httpError carries an explicit status code out of a handler.
// retryAfter, when positive, becomes a Retry-After header on the
// response so well-behaved clients back off instead of hammering.
type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; 0 omits the header
}

func (e *httpError) Error() string { return e.msg }

// badRequest builds a 400 with a client-facing message.
func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// wrap applies the hardening and observability middleware to an
// endpoint: request-id propagation, concurrency bounding with 429
// shedding, the per-request timeout, the server.handle fault point,
// panic recovery, status mapping, metrics and the request log line.
// The handler returns a value rather than writing the response
// itself, so a panic mid-handler can still be converted into a clean
// 500.
func (s *Server) wrap(path string, h handlerFunc) http.Handler {
	durations := s.metrics.Histogram(metricDuration, nil, "path", path)
	inflight := s.metrics.Gauge(metricInflight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = obsv.NewRequestID()
		}
		ctx := obsv.WithRequestID(r.Context(), reqID)
		w.Header().Set("X-Request-Id", reqID)

		finish := func(status int, outcome string, err error) {
			s.metrics.Counter(metricRequests, "path", path, "status", strconv.Itoa(status)).Inc()
			durations.ObserveSince(start)
			kv := []any{
				"method", r.Method,
				"path", path,
				"status", status,
				"dur", time.Since(start).Round(time.Microsecond),
				"outcome", outcome,
			}
			if err != nil {
				kv = append(kv, "err", err)
			}
			if status >= http.StatusInternalServerError {
				s.logger.Error(ctx, "request", kv...)
				return
			}
			s.logger.Info(ctx, "request", kv...)
		}

		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.metrics.Counter(metricSheds).Inc()
			finish(http.StatusTooManyRequests, "shed", nil)
			w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfterSeconds))
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "server overloaded; retry later"})
			return
		}
		inflight.Add(1)
		defer inflight.Add(-1)
		ctx, cancel := context.WithTimeout(ctx, s.requestTimeout)
		defer cancel()

		var (
			out      any
			err      error
			panicked bool
		)
		func() {
			defer func() {
				if p := recover(); p != nil {
					panicked = true
					s.logger.Error(ctx, "panic recovered", "path", path, "panic", fmt.Sprintf("%v", p), "stack", string(debug.Stack()))
				}
			}()
			if err = faultinject.HitContext(ctx, faultinject.SiteServerHandle); err != nil {
				return
			}
			out, err = h(r.WithContext(ctx))
		}()
		switch {
		case panicked:
			s.metrics.Counter(metricPanics).Inc()
			finish(http.StatusInternalServerError, "panic", nil)
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "internal server error"})
		case err != nil:
			status := statusOf(err)
			outcome := "error"
			if errors.Is(err, context.DeadlineExceeded) {
				s.metrics.Counter(metricTimeouts).Inc()
				outcome = "timeout"
			}
			var he *httpError
			if errors.As(err, &he) && he.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
			}
			finish(status, outcome, err)
			writeJSON(w, status, errorBody{Error: err.Error()})
		default:
			outcome := "ok"
			if p, ok := out.(partialer); ok && p.partialResult() {
				// A degraded-but-served request: the client got a 200
				// with partial data, which capacity planning needs to
				// see separately from clean successes.
				s.metrics.Counter(metricPartials).Inc()
				outcome = "partial"
			}
			finish(http.StatusOK, outcome, nil)
			writeJSON(w, http.StatusOK, out)
		}
	})
}

// statusOf maps a handler error to an HTTP status: explicit httpErrors
// keep their code, deadline expiry is 504, client cancellation 499-ish
// (503, the closest standard code), injected faults and other internal
// failures 500, and anything else — almost always a name-resolution
// problem in query parameters — 400.
func statusOf(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, faultinject.ErrInjected):
		return http.StatusInternalServerError
	case errors.Is(err, opmap.ErrRankSelf), errors.Is(err, opmap.ErrRankClass):
		// Distinct, errors.Is-matchable client errors from the compare
		// layer: an attrs= list naming the comparison attribute or the
		// class. Mapped explicitly so both stay 400 even if the default
		// mapping below ever tightens.
		return http.StatusBadRequest
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already written; an encode error here can only
	// be logged by the caller's middleware, not reported to the client.
	_ = enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyzResponse is the /readyz body. Ingest appears only when the
// daemon serves with a WAL directory: it maps each dataset to "ready"
// or "replaying", and any replaying dataset holds the whole endpoint
// at 503 so load balancers wait out recovery.
type readyzResponse struct {
	Status string            `json:"status"`
	Ingest map[string]string `json:"ingest,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := readyzResponse{Status: "ready"}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	case !s.ready.Load():
		resp.Status = "not ready"
		status = http.StatusServiceUnavailable
	}
	if s.ingestStatus != nil {
		resp.Ingest = make(map[string]string, len(s.sessions))
		for name := range s.sessions {
			if s.ingestStatus(name) {
				resp.Ingest[name] = "replaying"
				if status == http.StatusOK {
					resp.Status = "replaying"
					status = http.StatusServiceUnavailable
				}
			} else {
				resp.Ingest[name] = "ready"
			}
		}
	}
	writeJSON(w, status, resp)
}

// handleMetrics exposes the registry: Prometheus text by default,
// JSON with ?format=json. It bypasses the request middleware — a
// scrape must work even when the API is shedding load, and scrapes
// should not count as traffic.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := s.metrics.WriteJSON(w); err != nil {
			s.logger.Error(r.Context(), "metrics exposition", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WritePrometheus(w); err != nil {
		s.logger.Error(r.Context(), "metrics exposition", "err", err)
	}
}
