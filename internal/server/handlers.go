package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"opmap"
)

// The endpoint handlers translate query parameters into Session calls
// under the request context and return JSON-ready values. Response
// shapes are DTOs local to this package so the wire format is explicit
// and stable regardless of the library types behind it.

type overviewResponse struct {
	Rows        int                `json:"rows"`
	Class       string             `json:"class"`
	Classes     []string           `json:"classes"`
	Attributes  []string           `json:"attributes"`
	CubeCount   int                `json:"cube_count"`
	RuleSpace   int64              `json:"rule_space"`
	Influential []influentialEntry `json:"influential"`
	Trends      []trendEntry       `json:"trends"`
}

type influentialEntry struct {
	Attr              string  `json:"attr"`
	ChiSquare         float64 `json:"chi_square"`
	PValue            float64 `json:"p_value"`
	MutualInformation float64 `json:"mutual_information"`
}

type trendEntry struct {
	Attr     string  `json:"attr"`
	Class    string  `json:"class"`
	Kind     string  `json:"kind"`
	Strength float64 `json:"strength"`
}

func (s *Server) handleOverview(r *http.Request) (any, error) {
	sess, err := s.session(r)
	if err != nil {
		return nil, err
	}
	limit, err := intParam(r, "top", 10)
	if err != nil {
		return nil, err
	}
	imp, err := sess.ImpressionsContext(r.Context(), opmap.ImpressionOptions{})
	if err != nil {
		return nil, err
	}
	resp := &overviewResponse{
		Rows:       sess.NumRows(),
		Class:      sess.ClassAttribute(),
		Classes:    sess.Classes(),
		Attributes: sess.Attributes(),
		CubeCount:  sess.CubeCount(),
		RuleSpace:  sess.RuleSpaceSize(),
	}
	for i, inf := range imp.Influential {
		if i >= limit {
			break
		}
		resp.Influential = append(resp.Influential, influentialEntry{
			Attr:              inf.Attr,
			ChiSquare:         inf.ChiSquare,
			PValue:            inf.PValue,
			MutualInformation: inf.MutualInformation,
		})
	}
	for _, t := range imp.Trends {
		resp.Trends = append(resp.Trends, trendEntry{
			Attr:     t.Attr,
			Class:    t.Class,
			Kind:     t.Kind,
			Strength: t.Strength,
		})
	}
	return resp, nil
}

type detailResponse struct {
	Attr   string      `json:"attr"`
	Values []string    `json:"values"`
	Pairs  []pairEntry `json:"pairs"`
}

type pairEntry struct {
	Value1 string  `json:"value1"`
	Value2 string  `json:"value2"`
	Cf1    float64 `json:"cf1"`
	Cf2    float64 `json:"cf2"`
	Ratio  float64 `json:"ratio"`
	Z      float64 `json:"z"`
	PValue float64 `json:"p_value"`
}

func (s *Server) handleDetail(r *http.Request) (any, error) {
	sess, err := s.session(r)
	if err != nil {
		return nil, err
	}
	attr := r.URL.Query().Get("attr")
	class := r.URL.Query().Get("class")
	if attr == "" || class == "" {
		return nil, badRequest("detail requires attr and class query parameters")
	}
	maxPairs, err := intParam(r, "max_pairs", 0)
	if err != nil {
		return nil, err
	}
	values, err := sess.Values(attr)
	if err != nil {
		return nil, err
	}
	pairs, err := sess.ScreenPairs(attr, class, maxPairs)
	if err != nil {
		return nil, err
	}
	resp := &detailResponse{Attr: attr, Values: values}
	for _, p := range pairs {
		resp.Pairs = append(resp.Pairs, pairEntry{
			Value1: p.Value1,
			Value2: p.Value2,
			Cf1:    p.Cf1,
			Cf2:    p.Cf2,
			Ratio:  p.Ratio,
			Z:      p.Z,
			PValue: p.PValue,
		})
	}
	return resp, nil
}

// itemError is the wire form of a per-item failure annotation. The
// library type (opmap.ItemError) marshals its message under "err";
// clients were promised "error", so the DTO renames the field instead
// of leaking the internal tag onto the wire.
type itemError struct {
	Item  string `json:"item"`
	Error string `json:"error"`
}

func toItemErrors(in []opmap.ItemError) []itemError {
	if len(in) == 0 {
		return nil
	}
	out := make([]itemError, len(in))
	for i, ie := range in {
		out[i] = itemError{Item: ie.Item, Error: ie.Err}
	}
	return out
}

type compareResponse struct {
	Attr     string       `json:"attr"`
	Label1   string       `json:"label1"`
	Label2   string       `json:"label2"`
	Cf1      float64      `json:"cf1"`
	Cf2      float64      `json:"cf2"`
	Ratio    float64      `json:"ratio"`
	Class    string       `json:"class"`
	Partial  bool         `json:"partial"`
	Unscored []itemError  `json:"unscored,omitempty"`
	Ranked   []scoreEntry `json:"ranked"`
	Property []scoreEntry `json:"property,omitempty"`
}

func (c *compareResponse) partialResult() bool { return c.Partial }

type scoreEntry struct {
	Name          string  `json:"name"`
	Score         float64 `json:"score"`
	NormScore     float64 `json:"norm_score"`
	PropertyRatio float64 `json:"property_ratio,omitempty"`
}

// compareAllEntry is one value's comparison inside the all_values
// response, tagged with the value it compares against the rest.
type compareAllEntry struct {
	Value string `json:"value"`
	compareResponse
}

// compareAllResponse is the all_values=1 form of /api/compare: one
// entry per value of the attribute whose one-vs-rest comparison is
// defined on the data, plus the skipped values with their reasons.
type compareAllResponse struct {
	Attr        string            `json:"attr"`
	Class       string            `json:"class"`
	Partial     bool              `json:"partial"`
	Skipped     []itemError       `json:"skipped,omitempty"`
	Comparisons []compareAllEntry `json:"comparisons"`
}

func (c *compareAllResponse) partialResult() bool { return c.Partial }

// handleCompare serves the comparison forms: attr+v1+v2 compares the
// two values pairwise; attr+value compares value against the rest
// (degrading to a partial ranking on deadline expiry); all_values=1
// runs the one-vs-rest comparison for every value of attr in one
// shared-scan batch. The optional attrs parameter (comma-separated
// names) restricts the ranked attributes in any form.
func (s *Server) handleCompare(r *http.Request) (any, error) {
	sess, err := s.session(r)
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	attr, class := q.Get("attr"), q.Get("class")
	if attr == "" || class == "" {
		return nil, badRequest("compare requires attr and class query parameters")
	}
	top, err := intParam(r, "top", 10)
	if err != nil {
		return nil, err
	}
	allValues, err := boolParam(r, "all_values")
	if err != nil {
		return nil, err
	}
	var opts opmap.CompareOptions
	if raw := q.Get("attrs"); raw != "" {
		opts.Attrs, err = attrList(strings.Split(raw, ","))
		if err != nil {
			return nil, err
		}
	}
	var cmp *opmap.Comparison
	switch {
	case allValues:
		opts.PartialOnDeadline = true
		all, err := sess.CompareOneVsRestAllContext(r.Context(), attr, class, opts)
		if err != nil {
			return nil, err
		}
		resp := &compareAllResponse{
			Attr:    all.Attr,
			Class:   class,
			Partial: all.Partial,
			Skipped: toItemErrors(all.Skipped),
		}
		for _, c := range all.Comparisons {
			value := c.Label1
			if value == "rest" {
				value = c.Label2
			}
			resp.Comparisons = append(resp.Comparisons, compareAllEntry{
				Value:           value,
				compareResponse: *toCompareResponse(c, top),
			})
		}
		return resp, nil
	case q.Get("value") != "":
		opts.PartialOnDeadline = true
		cmp, err = sess.CompareOneVsRestContext(r.Context(), attr, q.Get("value"), class, opts)
	case q.Get("v1") != "" && q.Get("v2") != "":
		cmp, err = sess.CompareContext(r.Context(), attr, q.Get("v1"), q.Get("v2"), class, opts)
	default:
		return nil, badRequest("compare requires v1 and v2, value (one-vs-rest), or all_values=1")
	}
	if err != nil {
		return nil, err
	}
	return toCompareResponse(cmp, top), nil
}

// toCompareResponse converts one comparison to its wire form, keeping
// the top entries of each ranking list.
func toCompareResponse(cmp *opmap.Comparison, top int) *compareResponse {
	resp := &compareResponse{
		Attr:     cmp.Attr,
		Label1:   cmp.Label1,
		Label2:   cmp.Label2,
		Cf1:      cmp.Cf1,
		Cf2:      cmp.Cf2,
		Ratio:    cmp.Ratio,
		Class:    cmp.Class,
		Partial:  cmp.Partial,
		Unscored: toItemErrors(cmp.Unscored),
	}
	resp.Ranked = toScoreEntries(cmp.Top(top))
	property := cmp.PropertyAttributes()
	resp.Property = toScoreEntries(property[:min(top, len(property))])
	return resp
}

// toScoreEntries converts scores to their wire form; none gives nil,
// which encodes as null, as the ranking lists always have.
func toScoreEntries(scores []opmap.AttributeScore) []scoreEntry {
	if len(scores) == 0 {
		return nil
	}
	out := make([]scoreEntry, len(scores))
	for i, sc := range scores {
		out[i] = scoreEntry{
			Name:          sc.Name,
			Score:         sc.Score,
			NormScore:     sc.NormScore,
			PropertyRatio: sc.PropertyRatio,
		}
	}
	return out
}

type sweepResponse struct {
	PairsCompared int          `json:"pairs_compared"`
	PairsSkipped  int          `json:"pairs_skipped"`
	Partial       bool         `json:"partial"`
	Errors        []itemError  `json:"errors,omitempty"`
	Attributes    []sweepEntry `json:"attributes"`
}

func (s *sweepResponse) partialResult() bool { return s.Partial }

type sweepEntry struct {
	Name       string    `json:"name"`
	Pairs      int       `json:"pairs"`
	BestScore  float64   `json:"best_score"`
	BestPair   [2]string `json:"best_pair"`
	TotalScore float64   `json:"total_score"`
}

// handleSweep runs a degradable sweep: if the request deadline expires
// mid-fan-out the pairs compared so far are returned with partial=true
// and the skipped pairs annotated in errors.
func (s *Server) handleSweep(r *http.Request) (any, error) {
	sess, err := s.session(r)
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	attr, class := q.Get("attr"), q.Get("class")
	if attr == "" || class == "" {
		return nil, badRequest("sweep requires attr and class query parameters")
	}
	maxPairs, err := intParam(r, "max_pairs", 0)
	if err != nil {
		return nil, err
	}
	res, err := sess.SweepPartial(r.Context(), attr, class, maxPairs)
	if err != nil {
		return nil, err
	}
	resp := &sweepResponse{
		PairsCompared: res.PairsCompared,
		PairsSkipped:  res.PairsSkipped,
		Partial:       res.Partial,
		Errors:        toItemErrors(res.Errors),
	}
	for _, a := range res.Attributes {
		resp.Attributes = append(resp.Attributes, sweepEntry{
			Name:       a.Name,
			Pairs:      a.Pairs,
			BestScore:  a.BestScore,
			BestPair:   a.BestPair,
			TotalScore: a.TotalScore,
		})
	}
	return resp, nil
}

type datasetsResponse struct {
	Default  string         `json:"default"`
	Datasets []datasetEntry `json:"datasets"`
}

type datasetEntry struct {
	Name      string `json:"name"`
	Rows      int    `json:"rows"`
	Class     string `json:"class"`
	Lazy      bool   `json:"lazy"`
	CubeCount int    `json:"cube_count"`
	// Snapshot reports the dataset's warm-start state ("loaded",
	// "cold (stale)", ...) when the daemon serves with a
	// snapshot directory; absent otherwise.
	Snapshot string `json:"snapshot,omitempty"`
}

// handleDatasets lists the served datasets so clients can discover the
// dataset parameter's legal values. CubeCount on a lazy dataset is the
// cubes materialized so far, not the full space.
func (s *Server) handleDatasets(_ *http.Request) (any, error) {
	resp := &datasetsResponse{Default: s.defaultName}
	for _, name := range s.DatasetNames() {
		sess := s.sessions[name]
		entry := datasetEntry{
			Name:      name,
			Rows:      sess.NumRows(),
			Class:     sess.ClassAttribute(),
			Lazy:      sess.EngineStats().Lazy,
			CubeCount: sess.CubeCount(),
		}
		if s.snapStatus != nil {
			entry.Snapshot = s.snapStatus(name)
		}
		resp.Datasets = append(resp.Datasets, entry)
	}
	return resp, nil
}

// maxIngestBody bounds an ingest request body. A batch this size is
// already far past the point where splitting it beats one giant POST,
// so the limit protects memory without constraining real clients.
const maxIngestBody = 32 << 20

type ingestRequest struct {
	Rows [][]string `json:"rows"`
}

type ingestResponse struct {
	Dataset  string `json:"dataset"`
	Accepted int    `json:"accepted"`
	// Seq is the WAL sequence assigned to the batch. Once this response
	// is on the wire the batch is fsynced: a crash at any later point
	// replays it.
	Seq uint64 `json:"seq"`
}

// handleIngest accepts a POST with a JSON body of rows (textual values
// in schema order, "?" for missing) and appends them durably to the
// dataset: WAL first (fsynced before the response), in-memory state
// through the bounded apply queue. A full queue answers 503 with
// Retry-After — the batch was not accepted and should be resent as-is.
func (s *Server) handleIngest(r *http.Request) (any, error) {
	if r.Method != http.MethodPost {
		return nil, &httpError{status: http.StatusMethodNotAllowed, msg: "ingest requires POST"}
	}
	if s.ingest == nil {
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "ingestion disabled (start opmapd with -wal-dir)"}
	}
	name := r.URL.Query().Get("dataset")
	if name == "" {
		name = s.defaultName
	}
	if _, ok := s.sessions[name]; !ok {
		return nil, badRequest("unknown dataset %q (GET /api/datasets lists the served datasets)", name)
	}
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxIngestBody))
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("ingest body: %v", err)
	}
	if len(req.Rows) == 0 {
		return nil, badRequest(`ingest body has no rows (expected {"rows": [[...], ...]})`)
	}
	seq, err := s.ingest(r.Context(), name, req.Rows)
	if err != nil {
		if errors.Is(err, ErrBackpressure) {
			s.metrics.Counter(metricIngestSheds).Inc()
			return nil, &httpError{
				status:     http.StatusServiceUnavailable,
				msg:        fmt.Sprintf("ingest queue full for dataset %q; retry the batch", name),
				retryAfter: shedRetryAfterSeconds,
			}
		}
		return nil, err
	}
	s.metrics.Counter(metricIngestRows).Add(int64(len(req.Rows)))
	return &ingestResponse{Dataset: name, Accepted: len(req.Rows), Seq: seq}, nil
}

// attrList validates a client-supplied ranked-attribute restriction
// list: entries are trimmed, an empty name is rejected, and a
// duplicate fails the request naming the offender. Duplicates used to
// pass through verbatim, and the compare layer ranks an explicit list
// as given — so attrs=A,A scored A twice and listed it twice in the
// response. The restriction is a set; rejecting duplicates here keeps
// a client bug visible instead of silently double-counting. Shared by
// the compare and drilldown endpoints so both enforce the same rule.
func attrList(names []string) ([]string, error) {
	seen := make(map[string]struct{}, len(names))
	out := make([]string, 0, len(names))
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, badRequest("attrs list contains an empty attribute name")
		}
		if _, dup := seen[name]; dup {
			return nil, badRequest("attrs list names %q twice", name)
		}
		seen[name] = struct{}{}
		out = append(out, name)
	}
	return out, nil
}

// maxDrilldownBody bounds a drill-down request body. The request is a
// small JSON object of names and knobs; 1 MiB is far beyond any
// legitimate attrs list.
const maxDrilldownBody = 1 << 20

// drilldownRequest is the POST /api/drilldown body. Zero-valued knobs
// take the library defaults (depth 2, beam 8, 256 nodes, support 8,
// the paper measure).
type drilldownRequest struct {
	Attr       string   `json:"attr"`
	V1         string   `json:"v1"`
	V2         string   `json:"v2"`
	Class      string   `json:"class"`
	MaxDepth   int      `json:"max_depth"`
	Beam       int      `json:"beam"`
	MaxNodes   int      `json:"max_nodes"`
	MinSupport int64    `json:"min_support"`
	Measure    string   `json:"measure"`
	Attrs      []string `json:"attrs"`
	Top        int      `json:"top"`
}

type drillCondEntry struct {
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

type drillFindingEntry struct {
	Conds []drillCondEntry `json:"conds"`
	Depth int              `json:"depth"`
	Score float64          `json:"score"`
	Raw   float64          `json:"raw"`
	N1    int64            `json:"n1"`
	C1    int64            `json:"c1"`
	N2    int64            `json:"n2"`
	C2    int64            `json:"c2"`
	Cf1   float64          `json:"cf1"`
	Cf2   float64          `json:"cf2"`
}

type drilldownResponse struct {
	Attr       string              `json:"attr"`
	Label1     string              `json:"label1"`
	Label2     string              `json:"label2"`
	Class      string              `json:"class"`
	Cf1        float64             `json:"cf1"`
	Cf2        float64             `json:"cf2"`
	Ratio      float64             `json:"ratio"`
	Measure    string              `json:"measure"`
	Expanded   int                 `json:"expanded"`
	Partial    bool                `json:"partial"`
	Unexplored []itemError         `json:"unexplored,omitempty"`
	Findings   []drillFindingEntry `json:"findings"`
}

func (d *drilldownResponse) partialResult() bool { return d.Partial }

// handleDrilldown runs a multi-condition drill-down: the attr=v1 vs
// attr=v2 comparison followed by a beam search over condition
// conjunctions inside the refined sub-populations. POST with a JSON
// body because the parameter set (search knobs plus an attribute
// list) outgrows a query string. The search degrades on deadline
// expiry like the other long-running endpoints: findings collected so
// far come back with partial=true and the unexplored frontier
// annotated.
func (s *Server) handleDrilldown(r *http.Request) (any, error) {
	if r.Method != http.MethodPost {
		return nil, &httpError{status: http.StatusMethodNotAllowed, msg: "drilldown requires POST"}
	}
	sess, err := s.session(r)
	if err != nil {
		return nil, err
	}
	var req drilldownRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxDrilldownBody))
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("drilldown body: %v", err)
	}
	if req.Attr == "" || req.V1 == "" || req.V2 == "" || req.Class == "" {
		return nil, badRequest("drilldown requires attr, v1, v2 and class")
	}
	for _, knob := range []struct {
		name string
		v    int64
	}{
		{"max_depth", int64(req.MaxDepth)},
		{"beam", int64(req.Beam)},
		{"max_nodes", int64(req.MaxNodes)},
		{"min_support", req.MinSupport},
		{"top", int64(req.Top)},
	} {
		if knob.v < 0 {
			return nil, badRequest("drilldown %s=%d must be non-negative", knob.name, knob.v)
		}
	}
	var attrs []string
	if len(req.Attrs) > 0 {
		attrs, err = attrList(req.Attrs)
		if err != nil {
			return nil, err
		}
	}
	res, err := sess.DrillDownContext(r.Context(), req.Attr, req.V1, req.V2, req.Class, opmap.DrillOptions{
		Compare:           opmap.CompareOptions{Attrs: attrs},
		MaxDepth:          req.MaxDepth,
		Beam:              req.Beam,
		MaxNodes:          req.MaxNodes,
		MinSupport:        req.MinSupport,
		Measure:           req.Measure,
		PartialOnDeadline: true,
	})
	if err != nil {
		return nil, err
	}
	top := req.Top
	if top == 0 {
		top = 10
	}
	resp := &drilldownResponse{
		Attr:       res.Attr,
		Label1:     res.Label1,
		Label2:     res.Label2,
		Class:      res.Class,
		Cf1:        res.Cf1,
		Cf2:        res.Cf2,
		Ratio:      res.Ratio,
		Measure:    res.Measure,
		Expanded:   res.Expanded,
		Partial:    res.Partial,
		Unexplored: toItemErrors(res.Unexplored),
	}
	for _, f := range res.Top(top) {
		entry := drillFindingEntry{
			Depth: f.Depth,
			Score: f.Score,
			Raw:   f.Raw,
			N1:    f.N1, C1: f.C1, N2: f.N2, C2: f.C2,
			Cf1: f.Cf1, Cf2: f.Cf2,
		}
		for _, c := range f.Conds {
			entry.Conds = append(entry.Conds, drillCondEntry{Attr: c.Attr, Value: c.Value})
		}
		resp.Findings = append(resp.Findings, entry)
	}
	return resp, nil
}

// intParam parses a non-negative integer query parameter, falling back
// to def only when the parameter is absent. A malformed or negative
// value is a client error and fails the request with 400 — silently
// substituting the default here used to mask typos like ?top=abc and
// made ?top=-3 behave as an unbounded limit.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badRequest("query parameter %s=%q is not an integer", name, v)
	}
	if n < 0 {
		return 0, badRequest("query parameter %s=%d must be non-negative", name, n)
	}
	return n, nil
}

// boolParam parses a boolean query parameter; absence means false. A
// malformed value fails the request with 400 for the same reason
// intParam does: ?all_values=ture silently meaning "off" masks typos.
func boolParam(r *http.Request, name string) (bool, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, badRequest("query parameter %s=%q is not a boolean", name, v)
	}
	return b, nil
}
