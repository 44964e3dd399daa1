package visual

import (
	"context"
	"fmt"
	"io"

	"opmap/internal/engine"
	"opmap/internal/stats"
)

// OverallSVG renders the Fig. 5 overall visualization as an SVG
// document: one row per attribute, one grid per class holding the
// confidences of all one-condition rules as thumbnail bars, with
// per-class scaling and trend arrows — the static equivalent of the
// deployed system's entry screen. Like Overall it reads only 1-D cubes.
func OverallSVG(ctx context.Context, w io.Writer, src *engine.LazySource, opts OverallOptions) error {
	maxVals := opts.MaxValuesPerGrid
	if maxVals == 0 {
		maxVals = 24
	}
	ds := src.Dataset()
	classDict := ds.ClassDict()
	numClasses := ds.NumClasses()
	attrs := src.Attrs()

	const (
		rowH    = 34
		gridW   = 150
		gridGap = 14
		nameW   = 190
		headerH = 46
		barPad  = 1
	)
	width := nameW + numClasses*(gridW+gridGap) + 20
	height := headerH + len(attrs)*rowH + 20

	trendFor := func(attr int, class int32) string {
		for _, t := range opts.Trends {
			if t.Attr == attr && t.Class == class {
				return trendArrow(t.Kind)
			}
		}
		return ""
	}

	var b svgBuf
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b.text(float64(nameW), 16, 13, "start",
		fmt.Sprintf("Overall view — %d attributes × %d classes", len(attrs), numClasses))
	for k := 0; k < numClasses; k++ {
		x := float64(nameW + k*(gridW+gridGap))
		b.text(x, headerH-8, 11, "start", classDict.Label(int32(k)))
	}

	palette := []string{"#4878a8", "#a85448", "#6a994e", "#bc8034", "#7161a8", "#4aa0a0"}
	for row, a := range attrs {
		y := float64(headerH + row*rowH)
		cube, err := src.CubeN(ctx, []int{a})
		if err != nil {
			return err
		}
		card := cube.Dim(0)
		shown := card
		if shown > maxVals {
			shown = maxVals
		}
		name := ds.Attr(a).Name
		if card > maxVals {
			name += fmt.Sprintf(" (+%d)", card-shown)
		}
		b.text(4, y+rowH/2+4, 11, "start", name)

		scale := make([]float64, numClasses)
		for k := range scale {
			scale[k] = 1
		}
		if opts.Scale {
			scale = cube.ScaleFactors()
		}
		for k := 0; k < numClasses; k++ {
			gx := float64(nameW + k*(gridW+gridGap))
			// Grid frame.
			b.rect(gx, y+2, gridW, rowH-6, "#f4f4f4", 1)
			var maxConf float64
			confs := make([]float64, shown)
			for v := 0; v < shown; v++ {
				cf, err := cube.Confidence([]int32{int32(v)}, int32(k))
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
			barW := float64(gridW)/float64(shown) - barPad
			if barW < 1 {
				barW = 1
			}
			for v := 0; v < shown; v++ {
				h := (rowH - 8) * confs[v] / maxConf
				b.rect(gx+float64(v)*(barW+barPad), y+2+(rowH-6)-h, barW, h, palette[k%len(palette)], 0.85)
			}
			if arrow := trendFor(a, int32(k)); arrow != "" {
				b.text(gx+gridW-2, y+12, 11, "end", arrow)
			}
		}
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
