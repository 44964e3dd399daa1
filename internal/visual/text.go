// Package visual renders rule cubes and comparison results as static
// text and SVG — the deterministic counterpart of the Opportunity Map
// GUI (Section V.A–B). The overall view corresponds to Fig. 5 (all 2-D
// rule cubes in an attribute × class matrix with class scaling and trend
// arrows), the detailed view to Fig. 6, the comparison view with
// confidence-interval regions to Fig. 7, and the property-attribute view
// to Fig. 8.
package visual

import (
	"context"
	"fmt"
	"io"
	"strings"

	"opmap/internal/compare"
	"opmap/internal/engine"
	"opmap/internal/gi"
	"opmap/internal/rulecube"
	"opmap/internal/stats"
)

// barGlyphs are eighth-block glyphs for sub-character bar resolution.
var barGlyphs = []rune(" ▁▂▃▄▅▆▇█")

// sparkline renders values in [0, max] as a one-line bar strip.
func sparkline(values []float64, max float64) string {
	if max <= 0 {
		max = 1
	}
	var sb strings.Builder
	for _, v := range values {
		frac := v / max
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		idx := int(frac * float64(len(barGlyphs)-1))
		sb.WriteRune(barGlyphs[idx])
	}
	return sb.String()
}

// hbar renders a horizontal bar of width proportional to frac in [0,1].
func hbar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac * float64(width))
	return strings.Repeat("█", full) + strings.Repeat("·", width-full)
}

func trendArrow(kind gi.TrendKind) string {
	switch kind {
	case gi.Increasing:
		return "↑"
	case gi.Decreasing:
		return "↓"
	case gi.Stable:
		return "→"
	default:
		return " "
	}
}

// OverallOptions tunes the overall (Fig. 5) text view.
type OverallOptions struct {
	// Scale applies per-class scaling so minority classes are visible
	// (the paper's automatic scaling). Default true via NewOverall.
	Scale bool
	// MaxValuesPerGrid truncates wide attributes (the paper colors such
	// grids light blue); zero means 24.
	MaxValuesPerGrid int
	// Trends, if non-nil, annotates grids with trend arrows.
	Trends []gi.Trend
}

// Overall writes the Fig. 5-style overall visualization of the
// engine's attributes: one row per class, one block per attribute
// showing the confidences of all one-condition rules for that class as
// a sparkline, plus each attribute's data-distribution strip. Only 1-D
// cubes are read, under ctx; a lazy engine counts and pins each on
// first touch.
func Overall(ctx context.Context, w io.Writer, src *engine.LazySource, opts OverallOptions) error {
	maxVals := opts.MaxValuesPerGrid
	if maxVals == 0 {
		maxVals = 24
	}
	trendFor := func(attr int, class int32) string {
		for _, t := range opts.Trends {
			if t.Attr == attr && t.Class == class {
				return trendArrow(t.Kind)
			}
		}
		return " "
	}

	ds := src.Dataset()
	classDict := ds.ClassDict()
	classDist := ds.ClassDistribution()
	var totalRecords int64
	for _, n := range classDist {
		totalRecords += n
	}
	fmt.Fprintf(w, "Overall visualization — %d attributes × %d classes (%d records)\n", len(src.Attrs()), ds.NumClasses(), totalRecords)
	fmt.Fprintf(w, "Class distribution:\n")
	for k, n := range classDist {
		frac := 0.0
		if totalRecords > 0 {
			frac = float64(n) / float64(totalRecords)
		}
		fmt.Fprintf(w, "  %-24s %s %6.2f%% (%d)\n", classDict.Label(int32(k)), hbar(frac, 24), 100*frac, n)
	}
	fmt.Fprintln(w)

	for _, a := range src.Attrs() {
		cube, err := src.CubeN(ctx, []int{a})
		if err != nil {
			return err
		}
		card := cube.Dim(0)
		truncated := ""
		shown := card
		if shown > maxVals {
			shown = maxVals
			truncated = fmt.Sprintf(" …(+%d values)", card-shown)
		}
		marg, err := cube.ValueMarginals(0)
		if err != nil {
			return err
		}
		var maxMarg int64
		for _, m := range marg {
			if m > maxMarg {
				maxMarg = m
			}
		}
		dist := make([]float64, shown)
		for v := 0; v < shown; v++ {
			if maxMarg > 0 {
				dist[v] = float64(marg[v]) / float64(maxMarg)
			}
		}
		fmt.Fprintf(w, "%-24s dist %s%s\n", ds.Attr(a).Name, sparkline(dist, 1), truncated)

		scale := make([]float64, cube.NumClasses())
		for k := range scale {
			scale[k] = 1
		}
		if opts.Scale {
			scale = cube.ScaleFactors()
		}
		for k := int32(0); int(k) < cube.NumClasses(); k++ {
			confs := make([]float64, shown)
			var maxConf float64
			for v := 0; v < shown; v++ {
				cf, err := cube.Confidence([]int32{int32(v)}, k)
				if err != nil {
					return err
				}
				confs[v] = cf * scale[k]
				if confs[v] > maxConf {
					maxConf = confs[v]
				}
			}
			if stats.IsZero(maxConf) {
				maxConf = 1
			}
			fmt.Fprintf(w, "  %s %-22s %s\n", trendFor(a, k), classDict.Label(k), sparkline(confs, maxConf))
		}
	}
	return nil
}

// Detailed writes the Fig. 6-style detailed view of one 2-D rule cube:
// exact confidences, counts and percentages per value and class.
func Detailed(w io.Writer, cube *rulecube.Cube) error {
	if cube.NumDims() != 1 {
		return fmt.Errorf("visual: Detailed needs a 2-D rule cube, got %d condition dims", cube.NumDims())
	}
	fmt.Fprintf(w, "Detailed view — %s × class (%d records)\n", cube.AttrNames()[0], cube.Total())
	dict := cube.Dict(0)
	classDict := cube.ClassDict()
	for v := int32(0); int(v) < cube.Dim(0); v++ {
		cond, err := cube.CondCount([]int32{v})
		if err != nil {
			return err
		}
		share := 0.0
		if cube.Total() > 0 {
			share = float64(cond) / float64(cube.Total())
		}
		fmt.Fprintf(w, "%-20s  n=%-9d (%.2f%% of data)\n", dict.Label(v), cond, 100*share)
		for k := int32(0); int(k) < cube.NumClasses(); k++ {
			n, err := cube.Count([]int32{v}, k)
			if err != nil {
				return err
			}
			cf, err := cube.Confidence([]int32{v}, k)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "    %-24s %s %7.3f%%  (%d)\n", classDict.Label(k), hbar(cf, 30), 100*cf, n)
		}
	}
	return nil
}

// Comparison writes the Fig. 7-style view of one compared attribute:
// for each value, the two sub-populations' confidences side by side with
// their confidence-interval margins and the value's contribution W_k.
func Comparison(w io.Writer, res *compare.Result, score compare.AttrScore, label1, label2 string) {
	fmt.Fprintf(w, "Comparison on %q — %s (cf=%.4f) vs %s (cf=%.4f), ratio %.2f\n",
		score.Name, label1, res.Cf1, label2, res.Cf2, res.Ratio)
	if score.Property {
		fmt.Fprintf(w, "PROPERTY ATTRIBUTE (ratio %.2f > threshold): shown for reference only\n", score.PropertyRatio)
	}
	fmt.Fprintf(w, "M = %.2f (normalized %.4f)\n", score.Score, score.NormScore)

	var maxCf float64
	for k := range score.Values {
		d := res.Detail(score, k)
		hi := d.Cf1 + d.E1
		if d.Cf2+d.E2 > hi {
			hi = d.Cf2 + d.E2
		}
		if hi > maxCf {
			maxCf = hi
		}
	}
	if stats.IsZero(maxCf) {
		maxCf = 1
	}
	const width = 28
	for k := range score.Values {
		d := res.Detail(score, k)
		fmt.Fprintf(w, "%-20s\n", d.Label)
		fmt.Fprintf(w, "  %-10s %s %7.3f%% ±%.3f%%  (n=%d)\n", label1, ciBar(d.Cf1, d.E1, maxCf, width), 100*d.Cf1, 100*d.E1, d.N1)
		fmt.Fprintf(w, "  %-10s %s %7.3f%% ±%.3f%%  (n=%d)", label2, ciBar(d.Cf2, d.E2, maxCf, width), 100*d.Cf2, 100*d.E2, d.N2)
		if d.W > 0 {
			fmt.Fprintf(w, "   W=%.1f", d.W)
		}
		fmt.Fprintln(w)
	}
}

// ciBar renders a bar to value/max with a trailing CI region of '▒' up
// to (value+margin)/max, the text analogue of Fig. 7's grey regions.
func ciBar(value, margin, max float64, width int) string {
	v := value / max
	hi := (value + margin) / max
	if v < 0 {
		v = 0
	}
	if hi > 1 {
		hi = 1
	}
	if v > 1 {
		v = 1
	}
	solid := int(v * float64(width))
	fuzzy := int(hi*float64(width)) - solid
	if fuzzy < 0 {
		fuzzy = 0
	}
	rest := width - solid - fuzzy
	if rest < 0 {
		rest = 0
	}
	return strings.Repeat("█", solid) + strings.Repeat("▒", fuzzy) + strings.Repeat("·", rest)
}

// Ranking writes the ranked attribute list of a comparison result, with
// property attributes listed separately (Fig. 8's separate list).
func Ranking(w io.Writer, res *compare.Result, topN int) {
	fmt.Fprintf(w, "Attribute ranking (top %d of %d; %d property attributes set aside)\n",
		min(topN, len(res.Ranked)), len(res.Ranked), len(res.Property))
	var maxScore float64
	if len(res.Ranked) > 0 {
		maxScore = res.Ranked[0].Score
	}
	if stats.IsZero(maxScore) {
		maxScore = 1
	}
	for i, s := range res.Ranked {
		if i >= topN {
			break
		}
		fmt.Fprintf(w, "%3d. %-28s %s M=%.2f\n", i+1, s.Name, hbar(s.Score/maxScore, 24), s.Score)
	}
	if len(res.Property) > 0 {
		fmt.Fprintln(w, "Property attributes (Section IV.C):")
		for _, s := range res.Property {
			fmt.Fprintf(w, "   - %-28s ratio=%.2f M=%.2f\n", s.Name, s.PropertyRatio, s.Score)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
