package visual

import (
	"fmt"
	"io"
	"strings"

	"opmap/internal/compare"
	"opmap/internal/rulecube"
	"opmap/internal/stats"
)

// SVG rendering of the comparison and detailed views, so the figures can
// be saved as static vector images (the paper's Figs. 6–8 are GUI
// screenshots; these are their reproducible equivalents).

const (
	svgBarWidth   = 26
	svgBarGap     = 10
	svgGroupGap   = 34
	svgChartH     = 220
	svgMarginLeft = 56
	svgMarginTop  = 30
	svgMarginBot  = 64
)

type svgBuf struct {
	strings.Builder
}

func (b *svgBuf) rect(x, y, w, h float64, fill string, opacity float64) {
	fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" fill-opacity="%.2f"/>`+"\n", x, y, w, h, fill, opacity)
}

func (b *svgBuf) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n", x1, y1, x2, y2, stroke, width)
}

func (b *svgBuf) text(x, y float64, size int, anchor, s string) {
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-size="%d" font-family="sans-serif" text-anchor="%s">%s</text>`+"\n", x, y, size, anchor, escape(s))
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// ComparisonSVG renders the Fig. 7-style grouped bar chart for one
// compared attribute: per value, two bars (sub-population 1 and 2) with
// the CI margin drawn as a lighter cap region and the observed
// confidence as a red line, exactly as the paper describes its
// visualization ("The red lines are the actual drop rates... The grey
// region at the top of each bar is the confidence interval").
func ComparisonSVG(w io.Writer, res *compare.Result, score compare.AttrScore, label1, label2 string) error {
	n := len(score.Values)
	if n == 0 {
		return fmt.Errorf("visual: attribute %q has no values to draw", score.Name)
	}
	var maxCf float64
	for k := range score.Values {
		d := res.Detail(score, k)
		if v := d.Cf1 + d.E1; v > maxCf {
			maxCf = v
		}
		if v := d.Cf2 + d.E2; v > maxCf {
			maxCf = v
		}
	}
	if stats.IsZero(maxCf) {
		maxCf = 1
	}
	maxCf *= 1.1

	groupW := 2*svgBarWidth + svgBarGap
	width := svgMarginLeft + n*(groupW+svgGroupGap) + 20
	height := svgMarginTop + svgChartH + svgMarginBot

	var b svgBuf
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	b.text(float64(width)/2, 18, 14, "middle",
		fmt.Sprintf("%s: %s vs %s (M=%.1f)", score.Name, label1, label2, score.Score))

	yOf := func(cf float64) float64 {
		return svgMarginTop + svgChartH*(1-cf/maxCf)
	}
	// Axis and gridlines.
	b.line(svgMarginLeft, svgMarginTop, svgMarginLeft, svgMarginTop+svgChartH, "#444", 1)
	b.line(svgMarginLeft, svgMarginTop+svgChartH, float64(width-10), svgMarginTop+svgChartH, "#444", 1)
	for i := 0; i <= 4; i++ {
		cf := maxCf * float64(i) / 4
		y := yOf(cf)
		b.line(svgMarginLeft-4, y, svgMarginLeft, y, "#444", 1)
		b.text(svgMarginLeft-8, y+4, 10, "end", fmt.Sprintf("%.1f%%", 100*cf))
	}

	x := float64(svgMarginLeft + svgGroupGap/2)
	for k := range score.Values {
		d := res.Detail(score, k)
		drawBar := func(bx float64, cf, e float64, fill string) {
			y := yOf(cf)
			b.rect(bx, y, svgBarWidth, svgMarginTop+svgChartH-y, fill, 0.85)
			// CI region cap.
			top := yOf(cf + e)
			if top < y {
				b.rect(bx, top, svgBarWidth, y-top, "#999999", 0.45)
			}
			// Observed confidence as a red line.
			b.line(bx, y, bx+svgBarWidth, y, "#cc0000", 2)
		}
		drawBar(x, d.Cf1, d.E1, "#4878a8")
		drawBar(x+svgBarWidth+svgBarGap, d.Cf2, d.E2, "#a85448")
		b.text(x+float64(groupW)/2, svgMarginTop+svgChartH+16, 10, "middle", d.Label)
		b.text(x+float64(groupW)/2, svgMarginTop+svgChartH+30, 9, "middle",
			fmt.Sprintf("n=%d|%d", d.N1, d.N2))
		if d.W > 0 {
			b.text(x+float64(groupW)/2, svgMarginTop+svgChartH+44, 9, "middle",
				fmt.Sprintf("W=%.0f", d.W))
		}
		x += float64(groupW + svgGroupGap)
	}
	// Legend.
	ly := float64(height - 12)
	b.rect(svgMarginLeft, ly-10, 12, 12, "#4878a8", 0.85)
	b.text(svgMarginLeft+16, ly, 11, "start", label1)
	b.rect(svgMarginLeft+110, ly-10, 12, 12, "#a85448", 0.85)
	b.text(svgMarginLeft+126, ly, 11, "start", label2)
	b.WriteString("</svg>\n")

	_, err := io.WriteString(w, b.String())
	return err
}

// DetailedSVG renders the Fig. 6-style detailed 2-D cube view: one bar
// group per attribute value, one bar per class, height = confidence.
func DetailedSVG(w io.Writer, cube *rulecube.Cube) error {
	if cube.NumDims() != 1 {
		return fmt.Errorf("visual: DetailedSVG needs a 2-D rule cube")
	}
	card := cube.Dim(0)
	nc := cube.NumClasses()
	palette := []string{"#4878a8", "#a85448", "#6a994e", "#bc8034", "#7161a8", "#4aa0a0"}

	var maxCf float64
	for v := 0; v < card; v++ {
		for k := 0; k < nc; k++ {
			cf, err := cube.Confidence([]int32{int32(v)}, int32(k))
			if err != nil {
				return err
			}
			if cf > maxCf {
				maxCf = cf
			}
		}
	}
	if stats.IsZero(maxCf) {
		maxCf = 1
	}
	maxCf *= 1.1

	barW := 16
	groupW := nc*barW + 8
	width := svgMarginLeft + card*(groupW+20) + 20
	height := svgMarginTop + svgChartH + svgMarginBot

	var b svgBuf
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	b.text(float64(width)/2, 18, 14, "middle", fmt.Sprintf("%s × class", cube.AttrNames()[0]))
	yOf := func(cf float64) float64 { return svgMarginTop + svgChartH*(1-cf/maxCf) }
	b.line(svgMarginLeft, svgMarginTop, svgMarginLeft, svgMarginTop+svgChartH, "#444", 1)
	b.line(svgMarginLeft, svgMarginTop+svgChartH, float64(width-10), svgMarginTop+svgChartH, "#444", 1)
	for i := 0; i <= 4; i++ {
		cf := maxCf * float64(i) / 4
		y := yOf(cf)
		b.text(svgMarginLeft-8, y+4, 10, "end", fmt.Sprintf("%.1f%%", 100*cf))
	}
	x := float64(svgMarginLeft + 10)
	for v := 0; v < card; v++ {
		for k := 0; k < nc; k++ {
			cf, err := cube.Confidence([]int32{int32(v)}, int32(k))
			if err != nil {
				return err
			}
			y := yOf(cf)
			b.rect(x+float64(k*barW), y, float64(barW-2), svgMarginTop+svgChartH-y, palette[k%len(palette)], 0.85)
		}
		b.text(x+float64(groupW)/2, svgMarginTop+svgChartH+16, 10, "middle", cube.Dict(0).Label(int32(v)))
		x += float64(groupW + 20)
	}
	ly := float64(height - 12)
	lx := float64(svgMarginLeft)
	for k := 0; k < nc; k++ {
		b.rect(lx, ly-10, 12, 12, palette[k%len(palette)], 0.85)
		b.text(lx+16, ly, 11, "start", cube.ClassDict().Label(int32(k)))
		lx += 150
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
