// Package report renders engineer-facing Markdown reports from analysis
// results. The deployed Opportunity Map's output was consumed by design
// engineers who "investigate what may cause the poor drop rate ... from
// the design point of view"; a written artifact of a comparison — the
// input rules, the ranked attributes, the per-value evidence with its
// statistical qualifiers, and the property attributes set aside — is the
// natural hand-off format.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"opmap/internal/compare"
	"opmap/internal/gi"
)

// Options controls report content.
type Options struct {
	// Title overrides the default heading.
	Title string
	// TopN limits the ranked attributes detailed in full. Zero means 5.
	TopN int
	// MinW hides per-value rows with contribution below this (0 keeps
	// all rows of detailed attributes).
	MinW float64
	// Generated stamps the report; zero omits the timestamp line (keeps
	// golden tests deterministic).
	Generated time.Time
	// Impressions, if non-nil, adds a general-impressions appendix.
	Impressions *gi.Report
}

func (o Options) topN() int {
	if o.TopN == 0 {
		return 5
	}
	return o.TopN
}

// Comparison writes a Markdown report of a comparison result. label1 and
// label2 name the two sub-populations (label1 = lower confidence).
func Comparison(w io.Writer, res *compare.Result, attrName, label1, label2, classLabel string, opts Options) error {
	bw := &errWriter{w: w}

	title := opts.Title
	if title == "" {
		title = fmt.Sprintf("Comparison report: %s=%s vs %s=%s on %q",
			attrName, label1, attrName, label2, classLabel)
	}
	fmt.Fprintf(bw, "# %s\n\n", title)
	if !opts.Generated.IsZero() {
		fmt.Fprintf(bw, "_Generated %s_\n\n", opts.Generated.Format(time.RFC3339))
	}

	fmt.Fprintf(bw, "## Input rules\n\n")
	fmt.Fprintf(bw, "| Sub-population | Records | Class records | Confidence |\n")
	fmt.Fprintf(bw, "|---|---:|---:|---:|\n")
	fmt.Fprintf(bw, "| %s=%s | %d | %d | %.4f%% |\n", attrName, label1,
		res.Rule1.CondCount, res.Rule1.SupCount, 100*res.Cf1)
	fmt.Fprintf(bw, "| %s=%s | %d | %d | %.4f%% |\n\n", attrName, label2,
		res.Rule2.CondCount, res.Rule2.SupCount, 100*res.Cf2)
	fmt.Fprintf(bw, "Expectation ratio cf2/cf1 = **%.3f**. ", res.Ratio)
	ciNote := "Confidence intervals at the configured level adjust every per-value confidence (Section IV.B of the paper)."
	if res.Options.DisableCI {
		ciNote = "Confidence-interval adjustment disabled: raw confidences feed the measure."
	}
	fmt.Fprintf(bw, "%s\n\n", ciNote)

	fmt.Fprintf(bw, "## Attribute ranking\n\n")
	fmt.Fprintf(bw, "| # | Attribute | M | normalized |\n|---:|---|---:|---:|\n")
	for i, s := range res.Ranked {
		fmt.Fprintf(bw, "| %d | %s | %.2f | %.4f |\n", i+1, s.Name, s.Score, s.NormScore)
	}
	fmt.Fprintln(bw)

	if len(res.Property) > 0 {
		fmt.Fprintf(bw, "## Property attributes (set aside, Section IV.C)\n\n")
		fmt.Fprintf(bw, "Values of these attributes occur in only one sub-population — data artifacts, not behaviour:\n\n")
		for _, p := range res.Property {
			fmt.Fprintf(bw, "- **%s** (exclusivity ratio %.2f)\n", p.Name, p.PropertyRatio)
		}
		fmt.Fprintln(bw)
	}

	fmt.Fprintf(bw, "## Evidence for the top %d attributes\n\n", min(opts.topN(), len(res.Ranked)))
	for i, s := range res.Ranked {
		if i >= opts.topN() {
			break
		}
		fmt.Fprintf(bw, "### %d. %s (M = %.2f)\n\n", i+1, s.Name, s.Score)
		fmt.Fprintf(bw, "| Value | %s n | %s rate | ± | %s n | %s rate | ± | F | W |\n",
			label1, label1, label2, label2)
		fmt.Fprintf(bw, "|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		for k := range s.Values {
			d := res.Detail(s, k)
			if opts.MinW > 0 && d.W < opts.MinW {
				continue
			}
			fmt.Fprintf(bw, "| %s | %d | %.3f%% | %.3f%% | %d | %.3f%% | %.3f%% | %+.4f | %.1f |\n",
				escapeCell(d.Label), d.N1, 100*d.Cf1, 100*d.E1, d.N2, 100*d.Cf2, 100*d.E2, d.F, d.W)
		}
		fmt.Fprintln(bw)
		if hot := hottestValue(res, s); hot != "" {
			fmt.Fprintf(bw, "Focus: the gap concentrates in **%s**.\n\n", hot)
		}
	}

	if opts.Impressions != nil {
		writeImpressions(bw, opts.Impressions)
	}
	return bw.err
}

func writeImpressions(bw *errWriter, rep *gi.Report) {
	fmt.Fprintf(bw, "## Appendix: general impressions\n\n")
	if len(rep.Influential) > 0 {
		fmt.Fprintf(bw, "### Influential attributes\n\n")
		fmt.Fprintf(bw, "| Attribute | chi-square | p | MI (bits) |\n|---|---:|---:|---:|\n")
		for i, inf := range rep.Influential {
			if i >= 10 {
				break
			}
			fmt.Fprintf(bw, "| %s | %.1f | %.3g | %.5f |\n",
				inf.AttrName, inf.ChiSquare, inf.PValue, inf.MutualInformation)
		}
		fmt.Fprintln(bw)
	}
	if len(rep.Trends) > 0 {
		fmt.Fprintf(bw, "### Trends\n\n")
		trends := append([]gi.Trend(nil), rep.Trends...)
		sort.SliceStable(trends, func(i, j int) bool {
			if trends[i].AttrName != trends[j].AttrName {
				return trends[i].AttrName < trends[j].AttrName
			}
			return trends[i].ClassLabel < trends[j].ClassLabel
		})
		for _, tr := range trends {
			fmt.Fprintf(bw, "- %s: %s is **%s** (strength %.2f)\n",
				tr.ClassLabel, tr.AttrName, tr.Kind, tr.Strength)
		}
		fmt.Fprintln(bw)
	}
	if len(rep.Exceptions) > 0 {
		fmt.Fprintf(bw, "### Exceptions\n\n")
		for i, ex := range rep.Exceptions {
			if i >= 10 {
				break
			}
			fmt.Fprintf(bw, "- %s=%s → %s at %.2f%% (attribute mean %.2f%%, z=%.1f, n=%d)\n",
				ex.AttrName, ex.ValueLabel, ex.ClassLabel,
				100*ex.Confidence, 100*ex.Expected, ex.ZScore, ex.Support)
		}
		fmt.Fprintln(bw)
	}
}

// hottestValue names the value carrying the majority of an attribute's
// contribution, or "" when contributions are spread out.
func hottestValue(res *compare.Result, s compare.AttrScore) string {
	if s.Score <= 0 {
		return ""
	}
	var best compare.ValueDetail
	for k := range s.Values {
		if d := res.Detail(s, k); d.W > best.W {
			best = d
		}
	}
	if best.W > 0.5*s.Score {
		return best.Label
	}
	return ""
}

// escapeCell protects Markdown table syntax inside value labels.
func escapeCell(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}

// errWriter folds write errors so formatting code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
