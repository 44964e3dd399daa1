package visual

import (
	"fmt"
	"io"

	"opmap/internal/compare"
)

// PropertyView renders the Fig. 8 view of a property attribute: for each
// value, the two sub-populations' record counts side by side, making the
// zero-count sides — the reason the attribute is an artifact — visually
// explicit ("It can be seen in the first grid on the left that the first
// phone does not use that attribute value at all (0 count)").
func PropertyView(w io.Writer, res *compare.Result, score compare.AttrScore, label1, label2 string) {
	fmt.Fprintf(w, "Property attribute %q — exclusivity ratio %.2f\n", score.Name, score.PropertyRatio)
	if !score.Property {
		fmt.Fprintf(w, "(note: below the property threshold; shown for inspection)\n")
	}
	var maxN int64 = 1
	for _, d := range score.Values {
		if d.N1 > maxN {
			maxN = d.N1
		}
		if d.N2 > maxN {
			maxN = d.N2
		}
	}
	const width = 24
	for k := range score.Values {
		d := res.Detail(score, k)
		fmt.Fprintf(w, "%-20s\n", d.Label)
		for _, side := range []struct {
			label string
			n     int64
		}{
			{label1, d.N1},
			{label2, d.N2},
		} {
			bar := hbar(float64(side.n)/float64(maxN), width)
			marker := ""
			if side.n == 0 {
				marker = "  <- 0 count (never uses this value)"
			}
			fmt.Fprintf(w, "  %-10s %s n=%d%s\n", side.label, bar, side.n, marker)
		}
	}
}
