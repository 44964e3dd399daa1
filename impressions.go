package opmap

import (
	"context"
	"fmt"
	"io"

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
	ver := s.results.Version()
	key := impressionsKey(opts)
	if v, ok := s.results.Get(ver, key); ok {
		return v.(*Impressions), nil
	}
	rep, err := gi.MineAllSource(ctx, src,
		gi.TrendOptions{Tolerance: opts.TrendTolerance, MinStrength: opts.TrendMinStrength},
		gi.ExceptionOptions{MinZ: opts.ExceptionMinZ, MinSupport: opts.ExceptionMinSupport})
	if err != nil {
		return nil, err
	}
	out := toImpressions(rep)
	s.results.Put(ver, key, out)
	return out, nil
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
// every materialized 3-D cube, returning exceptional cells by descending
// surprise. minSelfExp ≤ 0 uses the default (2.5).
func (s *Session) CubeExceptions(minSelfExp float64) ([]CubeException, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	store, err := s.requireStore()
	if err != nil {
		return nil, err
	}
	byPair, err := baseline.ExploreStore(store, baseline.ExplorerOptions{MinSelfExp: minSelfExp, Class: -1})
	if err != nil {
		return nil, err
	}
	var out []CubeException
	for pair, exs := range byPair {
		n1 := s.ds.Attr(pair[0]).Name
		n2 := s.ds.Attr(pair[1]).Name
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
	sortCubeExceptions(out)
	return out, nil
}

func sortCubeExceptions(out []CubeException) {
	// Descending |SelfExp|; deterministic tie-break on names.
	lessAbs := func(a, b CubeException) bool {
		aa, bb := a.SelfExp, b.SelfExp
		if aa < 0 {
			aa = -aa
		}
		if bb < 0 {
			bb = -bb
		}
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
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && lessAbs(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

// RenderOverall writes the Fig. 5-style overall visualization: every
// 2-D rule cube as a class × attribute grid of confidence sparklines
// with class scaling and trend arrows.
func (s *Session) RenderOverall(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	store, err := s.requireStore()
	if err != nil {
		return err
	}
	rep, err := gi.MineAllSource(context.Background(), s.src, gi.TrendOptions{}, gi.ExceptionOptions{})
	if err != nil {
		return err
	}
	return visual.Overall(w, store, visual.OverallOptions{Scale: true, Trends: rep.Trends})
}

// RenderOverallSVG writes the Fig. 5-style overall view as an SVG
// document.
func (s *Session) RenderOverallSVG(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	store, err := s.requireStore()
	if err != nil {
		return err
	}
	rep, err := gi.MineAllSource(context.Background(), s.src, gi.TrendOptions{}, gi.ExceptionOptions{})
	if err != nil {
		return err
	}
	return visual.OverallSVG(w, store, visual.OverallOptions{Scale: true, Trends: rep.Trends})
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
