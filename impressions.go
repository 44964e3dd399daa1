package opmap

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"opmap/internal/baseline"
	"opmap/internal/gi"
	"opmap/internal/obsv"
	"opmap/internal/visual"
)

// Trend is a detected unit trend: one class's confidence across an
// attribute's values is increasing, decreasing or stable (the arrows of
// Fig. 5).
type Trend struct {
	Attr     string
	Class    string
	Kind     string // "increasing", "decreasing" or "stable"
	Strength float64
}

// Exception is a one-condition rule whose confidence deviates strongly
// from its attribute's typical confidence for the class.
type Exception struct {
	Attr       string
	Value      string
	Class      string
	Confidence float64
	Expected   float64
	ZScore     float64
	Support    int64
}

// InfluentialAttribute ranks an attribute's overall influence on the
// class via its contingency chi-square and mutual information.
type InfluentialAttribute struct {
	Attr              string
	ChiSquare         float64
	PValue            float64
	MutualInformation float64
}

// Impressions is the general-impressions report (trends, exceptions,
// influential attributes) of Section V.A's GI miner.
type Impressions struct {
	Trends      []Trend
	Exceptions  []Exception
	Influential []InfluentialAttribute
}

// ImpressionOptions tunes the GI miner. Zero values use the defaults
// documented in the internal gi package.
type ImpressionOptions struct {
	TrendTolerance      float64
	TrendMinStrength    float64
	ExceptionMinZ       float64
	ExceptionMinSupport int64
}

// Impressions mines general impressions over all materialized cubes.
func (s *Session) Impressions(opts ImpressionOptions) (*Impressions, error) {
	return s.ImpressionsContext(context.Background(), opts)
}

// ImpressionsContext is Impressions under a context, checked once per
// attribute the GI miner processes; cancellation returns ctx.Err().
func (s *Session) ImpressionsContext(ctx context.Context, opts ImpressionOptions) (*Impressions, error) {
	defer obsv.Stage(obsv.StageImpressions)()
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	return memo(s.results, impressionsKey(opts), nil, func() (*Impressions, bool, error) {
		rep, err := gi.MineAllSource(ctx, src,
			gi.TrendOptions{Tolerance: opts.TrendTolerance, MinStrength: opts.TrendMinStrength},
			gi.ExceptionOptions{MinZ: opts.ExceptionMinZ, MinSupport: opts.ExceptionMinSupport})
		if err != nil {
			return nil, false, err
		}
		return toImpressions(rep), false, nil
	})
}

// toImpressions converts the GI miner's report to the public type.
func toImpressions(rep *gi.Report) *Impressions {
	out := &Impressions{}
	for _, t := range rep.Trends {
		out.Trends = append(out.Trends, Trend{
			Attr:     t.AttrName,
			Class:    t.ClassLabel,
			Kind:     t.Kind.String(),
			Strength: t.Strength,
		})
	}
	for _, e := range rep.Exceptions {
		out.Exceptions = append(out.Exceptions, Exception{
			Attr:       e.AttrName,
			Value:      e.ValueLabel,
			Class:      e.ClassLabel,
			Confidence: e.Confidence,
			Expected:   e.Expected,
			ZScore:     e.ZScore,
			Support:    e.Support,
		})
	}
	for _, inf := range rep.Influential {
		out.Influential = append(out.Influential, InfluentialAttribute{
			Attr:              inf.AttrName,
			ChiSquare:         inf.ChiSquare,
			PValue:            inf.PValue,
			MutualInformation: inf.MutualInformation,
		})
	}
	return out
}

// ConditionalTrend is a trend detected within one sub-population: for
// groupAttr=Value, the class confidence across ordAttr's values is
// monotone or stable (each product's own behaviour curve).
type ConditionalTrend struct {
	GroupValue string
	OrdAttr    string
	Class      string
	Kind       string
	Strength   float64
}

// ConditionalTrends mines trends of ordAttr's confidences within each
// value of groupAttr, from the materialized 3-D cube.
func (s *Session) ConditionalTrends(groupAttr, ordAttr string) ([]ConditionalTrend, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	g := s.ds.AttrIndex(groupAttr)
	o := s.ds.AttrIndex(ordAttr)
	if g < 0 {
		return nil, fmt.Errorf("opmap: unknown attribute %q", groupAttr)
	}
	if o < 0 {
		return nil, fmt.Errorf("opmap: unknown attribute %q", ordAttr)
	}
	cube, err := src.CubeN(context.Background(), []int{g, o})
	if err != nil {
		return nil, fmt.Errorf("opmap: pair cube (%s,%s) unavailable: %w", groupAttr, ordAttr, err)
	}
	// TrendsWithin fixes the cube's first dimension; when the store's
	// canonical (min,max) order puts the group attribute second, slice
	// that dimension manually, from cube cells alone.
	var out []ConditionalTrend
	if cube.AttrIndices()[0] == g {
		cts, err := gi.TrendsWithin(cube, gi.TrendOptions{})
		if err != nil {
			return nil, err
		}
		for _, ct := range cts {
			out = append(out, ConditionalTrend{
				GroupValue: ct.FixedLabel,
				OrdAttr:    ct.Trend.AttrName,
				Class:      ct.Trend.ClassLabel,
				Kind:       ct.Trend.Kind.String(),
				Strength:   ct.Trend.Strength,
			})
		}
		return out, nil
	}
	groupDict := cube.Dict(1)
	for v := int32(0); int(v) < cube.Dim(1); v++ {
		sliced, err := cube.Slice(1, v)
		if err != nil {
			return nil, err
		}
		trends, err := gi.Trends(sliced, gi.TrendOptions{})
		if err != nil {
			return nil, err
		}
		for _, tr := range trends {
			out = append(out, ConditionalTrend{
				GroupValue: groupDict.Label(v),
				OrdAttr:    tr.AttrName,
				Class:      tr.ClassLabel,
				Kind:       tr.Kind.String(),
				Strength:   tr.Strength,
			})
		}
	}
	return out, nil
}

// CubeException is an exceptional cell found by the discovery-driven
// OLAP baseline (Sarawagi-style, Section II's related work).
type CubeException struct {
	Attr1, Value1 string
	Attr2, Value2 string
	Class         string
	Observed      float64
	Expected      float64
	SelfExp       float64
	Support       int64
}

// CubeExceptions runs the discovery-driven exploration baseline over
// every 3-D cube (two served attributes × class), returning exceptional
// cells by descending surprise. minSelfExp ≤ 0 uses the default (2.5).
// The pair cubes are requested one anchor attribute at a time, so a
// lazy session counts each anchor's missing pairs in one shared scan
// and holds at most one anchor's cubes beyond its budget; a pinned
// session counts nothing.
func (s *Session) CubeExceptions(minSelfExp float64) ([]CubeException, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	opts := baseline.ExplorerOptions{MinSelfExp: minSelfExp, Class: -1}
	attrs := src.Attrs()
	var out []CubeException
	for i, a := range attrs {
		partners := attrs[i+1:]
		reqs := make([][]int, len(partners))
		for k, b := range partners {
			reqs[k] = []int{a, b}
		}
		cubes, err := src.Cubes(context.Background(), reqs)
		if err != nil {
			return nil, err
		}
		for k, cube := range cubes {
			exs, err := baseline.ExploreCube(cube, opts)
			if err != nil {
				return nil, err
			}
			n1, n2 := s.ds.Attr(a).Name, s.ds.Attr(partners[k]).Name
			for _, e := range exs {
				out = append(out, CubeException{
					Attr1: n1, Value1: e.Labels[0],
					Attr2: n2, Value2: e.Labels[1],
					Class:    e.ClassLabel,
					Observed: e.Observed,
					Expected: e.Expected,
					SelfExp:  e.SelfExp,
					Support:  e.Support,
				})
			}
		}
	}
	sortCubeExceptions(out)
	return out, nil
}

// sortCubeExceptions orders exceptions by descending |SelfExp|, ties
// broken by attribute names; fully tied exceptions keep their order.
func sortCubeExceptions(out []CubeException) {
	slices.SortStableFunc(out, func(a, b CubeException) int {
		switch {
		case cubeExceptionLess(a, b):
			return -1
		case cubeExceptionLess(b, a):
			return 1
		}
		return 0
	})
}

// cubeExceptionLess reports whether a ranks before b: a larger
// |SelfExp|, then a smaller Attr1, then a smaller Attr2.
func cubeExceptionLess(a, b CubeException) bool {
	aa, bb := math.Abs(a.SelfExp), math.Abs(b.SelfExp)
	switch {
	case aa > bb:
		return true
	case bb > aa:
		return false
	}
	if a.Attr1 != b.Attr1 {
		return a.Attr1 < b.Attr1
	}
	return a.Attr2 < b.Attr2
}

// RenderOverall writes the Fig. 5-style overall visualization: every
// 2-D rule cube as a class × attribute grid of confidence sparklines
// with class scaling and trend arrows.
func (s *Session) RenderOverall(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return err
	}
	ctx := context.Background()
	rep, err := gi.MineAllSource(ctx, src, gi.TrendOptions{}, gi.ExceptionOptions{})
	if err != nil {
		return err
	}
	return visual.Overall(ctx, w, src, visual.OverallOptions{Scale: true, Trends: rep.Trends})
}

// RenderOverallSVG writes the Fig. 5-style overall view as an SVG
// document.
func (s *Session) RenderOverallSVG(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return err
	}
	ctx := context.Background()
	rep, err := gi.MineAllSource(ctx, src, gi.TrendOptions{}, gi.ExceptionOptions{})
	if err != nil {
		return err
	}
	return visual.OverallSVG(ctx, w, src, visual.OverallOptions{Scale: true, Trends: rep.Trends})
}

// RenderDetailed writes the Fig. 6-style detailed view of one
// attribute's 2-D rule cube.
func (s *Session) RenderDetailed(w io.Writer, attr string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return err
	}
	a := s.ds.AttrIndex(attr)
	if a < 0 {
		return fmt.Errorf("opmap: unknown attribute %q", attr)
	}
	cube, err := src.CubeN(context.Background(), []int{a})
	if err != nil {
		return fmt.Errorf("opmap: attribute %q unavailable: %w", attr, err)
	}
	return visual.Detailed(w, cube)
}

// RenderDetailed3D writes the 3-D rule cube view of two attributes ×
// class (Section V.B's second detailed mode).
func (s *Session) RenderDetailed3D(w io.Writer, attr1, attr2 string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return err
	}
	a := s.ds.AttrIndex(attr1)
	b := s.ds.AttrIndex(attr2)
	if a < 0 {
		return fmt.Errorf("opmap: unknown attribute %q", attr1)
	}
	if b < 0 {
		return fmt.Errorf("opmap: unknown attribute %q", attr2)
	}
	cube, err := src.CubeN(context.Background(), []int{a, b})
	if err != nil {
		return fmt.Errorf("opmap: pair cube (%s,%s) unavailable: %w", attr1, attr2, err)
	}
	return visual.Detailed3D(w, cube)
}

// RenderDetailedSVG writes the Fig. 6-style view as an SVG document.
func (s *Session) RenderDetailedSVG(w io.Writer, attr string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return err
	}
	a := s.ds.AttrIndex(attr)
	if a < 0 {
		return fmt.Errorf("opmap: unknown attribute %q", attr)
	}
	cube, err := src.CubeN(context.Background(), []int{a})
	if err != nil {
		return fmt.Errorf("opmap: attribute %q unavailable: %w", attr, err)
	}
	return visual.DetailedSVG(w, cube)
}
