// Package explore implements the interactive exploration session at the
// heart of the deployed Opportunity Map: the user moves between the
// overall view, detailed attribute views and comparisons through
// primitive operations (Section I: "each operation is primitive and has
// to be initiated by the user"), with the comparator automating the
// expensive step. The Explorer keeps a navigation history so "back"
// works, and a small line-oriented command language drives it — the
// scriptable, testable equivalent of the GUI.
package explore

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"opmap/internal/compare"
	"opmap/internal/drill"
	"opmap/internal/engine"
	"opmap/internal/gi"
	"opmap/internal/visual"
)

// view is one entry in the navigation history.
type view struct {
	kind string // "overview", "detail", "compare", "pairs", "impressions", ...
	// render redraws the view (history replay after "back").
	render func(w io.Writer) error
	// cmp holds the comparison backing "focus"/"property" follow-ups.
	cmp    *compare.Result
	label1 string
	label2 string
}

// Explorer is an interactive session over a cube engine: every view
// reads its cubes through the engine, which serves pinned cubes as they
// are and counts any other on first touch.
type Explorer struct {
	src   *engine.LazySource
	cmp   *compare.Comparator
	stack []view
}

// New creates an explorer over src, pinned or lazy.
func New(src *engine.LazySource) *Explorer {
	return &Explorer{src: src, cmp: compare.NewSource(src)}
}

// Depth returns the navigation-history depth.
func (e *Explorer) Depth() int { return len(e.stack) }

// push records and renders a view.
func (e *Explorer) push(w io.Writer, v view) error {
	if err := v.render(w); err != nil {
		return err
	}
	e.stack = append(e.stack, v)
	return nil
}

// current returns the top view, or nil.
func (e *Explorer) current() *view {
	if len(e.stack) == 0 {
		return nil
	}
	return &e.stack[len(e.stack)-1]
}

// Back pops the current view and re-renders the previous one.
func (e *Explorer) Back(w io.Writer) error {
	if len(e.stack) <= 1 {
		return fmt.Errorf("explore: nothing to go back to")
	}
	e.stack = e.stack[:len(e.stack)-1]
	return e.current().render(w)
}

// attrIndex resolves an attribute name against the engine's dataset.
func (e *Explorer) attrIndex(name string) (int, error) {
	a := e.src.Dataset().AttrIndex(name)
	if a < 0 {
		return 0, fmt.Errorf("explore: unknown attribute %q", name)
	}
	return a, nil
}

func (e *Explorer) valueCode(attr int, label string) (int32, error) {
	dict := e.src.Dataset().Column(attr).Dict
	v, ok := dict.Lookup(label)
	if !ok {
		return 0, fmt.Errorf("explore: attribute %q has no value %q", e.src.Dataset().Attr(attr).Name, label)
	}
	return v, nil
}

func (e *Explorer) classCode(label string) (int32, error) {
	c, ok := e.src.Dataset().ClassDict().Lookup(label)
	if !ok {
		return 0, fmt.Errorf("explore: unknown class %q", label)
	}
	return c, nil
}

// Overview pushes the Fig. 5 overall view.
func (e *Explorer) Overview(w io.Writer) error {
	render := func(w io.Writer) error {
		ctx := context.Background()
		rep, err := gi.MineAllSource(ctx, e.src, gi.TrendOptions{}, gi.ExceptionOptions{})
		if err != nil {
			return err
		}
		return visual.Overall(ctx, w, e.src, visual.OverallOptions{Scale: true, Trends: rep.Trends})
	}
	return e.push(w, view{kind: "overview", render: render})
}

// Detail pushes the Fig. 6 detailed view of one attribute.
func (e *Explorer) Detail(w io.Writer, attr string) error {
	a, err := e.attrIndex(attr)
	if err != nil {
		return err
	}
	cube, err := e.src.CubeN(context.Background(), []int{a})
	if err != nil {
		return fmt.Errorf("explore: attribute %q: %w", attr, err)
	}
	render := func(w io.Writer) error { return visual.Detailed(w, cube) }
	return e.push(w, view{kind: "detail", render: render})
}

// Detail3D pushes the 3-D view of two attributes × class.
func (e *Explorer) Detail3D(w io.Writer, attr1, attr2 string) error {
	a, err := e.attrIndex(attr1)
	if err != nil {
		return err
	}
	b, err := e.attrIndex(attr2)
	if err != nil {
		return err
	}
	cube, err := e.src.CubeN(context.Background(), []int{a, b})
	if err != nil {
		return fmt.Errorf("explore: pair (%s,%s): %w", attr1, attr2, err)
	}
	render := func(w io.Writer) error { return visual.Detailed3D(w, cube) }
	return e.push(w, view{kind: "detail3", render: render})
}

// Compare pushes a comparison view (ranking plus top attribute).
func (e *Explorer) Compare(w io.Writer, attr, v1, v2, class string) error {
	a, err := e.attrIndex(attr)
	if err != nil {
		return err
	}
	c1, err := e.valueCode(a, v1)
	if err != nil {
		return err
	}
	c2, err := e.valueCode(a, v2)
	if err != nil {
		return err
	}
	cls, err := e.classCode(class)
	if err != nil {
		return err
	}
	res, err := e.cmp.Compare(compare.Input{Attr: a, V1: c1, V2: c2, Class: cls}, compare.Options{})
	if err != nil {
		return err
	}
	dict := e.src.Dataset().Column(a).Dict
	l1 := dict.Label(res.Rule1.Conditions[0].Value)
	l2 := dict.Label(res.Rule2.Conditions[0].Value)
	render := func(w io.Writer) error {
		fmt.Fprintf(w, "compare %s: %s (%.3f%%) vs %s (%.3f%%) on %s\n",
			attr, l1, 100*res.Cf1, l2, 100*res.Cf2, class)
		visual.Ranking(w, res, 10)
		return nil
	}
	return e.push(w, view{kind: "compare", render: render, cmp: res, label1: l1, label2: l2})
}

// Drill pushes a multi-condition drill-down view: the comparison's
// highest-contribution branches expanded into condition conjunctions,
// surfacing effects no single attribute's ranking shows. depth 0 uses
// the default (two conditions). The view keeps the root comparison,
// so "focus" follow-ups work like after "compare".
func (e *Explorer) Drill(w io.Writer, attr, v1, v2, class string, depth int) error {
	a, err := e.attrIndex(attr)
	if err != nil {
		return err
	}
	c1, err := e.valueCode(a, v1)
	if err != nil {
		return err
	}
	c2, err := e.valueCode(a, v2)
	if err != nil {
		return err
	}
	cls, err := e.classCode(class)
	if err != nil {
		return err
	}
	res, err := drill.New(e.src).Drill(
		compare.Input{Attr: a, V1: c1, V2: c2, Class: cls},
		drill.Options{MaxDepth: depth},
	)
	if err != nil {
		return err
	}
	dict := e.src.Dataset().Column(a).Dict
	l1 := dict.Label(res.Root.Rule1.Conditions[0].Value)
	l2 := dict.Label(res.Root.Rule2.Conditions[0].Value)
	render := func(w io.Writer) error {
		fmt.Fprintf(w, "drill %s: %s (%.3f%%) vs %s (%.3f%%) on %s, measure=%s\n",
			attr, l1, 100*res.Root.Cf1, l2, 100*res.Root.Cf2, class, res.Measure)
		fmt.Fprintf(w, "%-3s %-44s %8s %9s %9s %7s\n", "#", "conditions", "score", "rate-lo", "rate-hi", "n-hi")
		for i, f := range res.Findings {
			if i >= 10 {
				break
			}
			fmt.Fprintf(w, "%-3d %-44s %8.4f %8.3f%% %8.3f%% %7d\n",
				i+1, f.Label(), f.Score, 100*f.Cf1, 100*f.Cf2, f.N2)
		}
		if res.Partial {
			fmt.Fprintf(w, "(partial: %d branches unexplored)\n", len(res.Unexplored))
		}
		return nil
	}
	return e.push(w, view{kind: "drill", render: render, cmp: res.Root, label1: l1, label2: l2})
}

// Focus renders the Fig. 7 view of one attribute of the current
// comparison (or its rank-1 attribute when name is empty).
func (e *Explorer) Focus(w io.Writer, name string) error {
	cur := e.current()
	if cur == nil || cur.cmp == nil {
		return fmt.Errorf("explore: focus requires a comparison view; run compare first")
	}
	res := cur.cmp
	if name == "" {
		if len(res.Ranked) == 0 {
			return fmt.Errorf("explore: the comparison ranked no attributes")
		}
		name = res.Ranked[0].Name
	}
	score, _, ok := res.Find(name)
	if !ok {
		return fmt.Errorf("explore: attribute %q not in the comparison", name)
	}
	l1, l2 := cur.label1, cur.label2
	render := func(w io.Writer) error {
		if score.Property {
			visual.PropertyView(w, res, score, l1, l2)
			return nil
		}
		visual.Comparison(w, res, score, l1, l2)
		return nil
	}
	return e.push(w, view{kind: "focus", render: render, cmp: res, label1: l1, label2: l2})
}

// Pairs pushes the screening view of an attribute.
func (e *Explorer) Pairs(w io.Writer, attr, class string, topN int) error {
	a, err := e.attrIndex(attr)
	if err != nil {
		return err
	}
	cls, err := e.classCode(class)
	if err != nil {
		return err
	}
	pairs, err := e.cmp.ScreenPairs(a, cls, compare.ScreenOptions{MaxPairs: topN})
	if err != nil {
		return err
	}
	render := func(w io.Writer) error {
		fmt.Fprintf(w, "%-14s %-14s %9s %9s %7s %9s\n", "low", "high", "rate-lo", "rate-hi", "z", "q")
		for _, p := range pairs {
			fmt.Fprintf(w, "%-14s %-14s %8.3f%% %8.3f%% %7.1f %9.2g\n",
				p.Label1, p.Label2, 100*p.Cf1, 100*p.Cf2, p.Z, p.QValue)
		}
		return nil
	}
	return e.push(w, view{kind: "pairs", render: render})
}

// Sweep pushes the systemic-vs-specific summary: every significant pair
// of attr compared, distinguishing attributes aggregated.
func (e *Explorer) Sweep(w io.Writer, attr, class string) error {
	a, err := e.attrIndex(attr)
	if err != nil {
		return err
	}
	cls, err := e.classCode(class)
	if err != nil {
		return err
	}
	res, err := e.cmp.Sweep(a, cls, compare.SweepOptions{})
	if err != nil {
		return err
	}
	render := func(w io.Writer) error {
		fmt.Fprintf(w, "swept %d significant pairs (%d skipped)\n", res.PairsCompared, res.PairsSkipped)
		for _, sa := range res.Attributes {
			fmt.Fprintf(w, "  %-28s pairs=%-3d best M=%.1f (%s vs %s)\n",
				sa.Name, sa.Pairs, sa.BestScore, sa.BestPair[0], sa.BestPair[1])
		}
		return nil
	}
	return e.push(w, view{kind: "sweep", render: render})
}

// Impressions pushes the GI-miner summary view.
func (e *Explorer) Impressions(w io.Writer) error {
	render := func(w io.Writer) error {
		rep, err := gi.MineAllSource(context.Background(), e.src, gi.TrendOptions{}, gi.ExceptionOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Influential attributes:")
		for i, inf := range rep.Influential {
			if i >= 8 {
				break
			}
			fmt.Fprintf(w, "  %2d. %-28s chi2=%.1f MI=%.5f\n", i+1, inf.AttrName, inf.ChiSquare, inf.MutualInformation)
		}
		fmt.Fprintln(w, "Trends:")
		for _, tr := range rep.Trends {
			fmt.Fprintf(w, "  %s: %s is %s\n", tr.ClassLabel, tr.AttrName, tr.Kind)
		}
		return nil
	}
	return e.push(w, view{kind: "impressions", render: render})
}

// Attributes lists the engine's attribute names.
func (e *Explorer) Attributes() []string {
	ds := e.src.Dataset()
	var names []string
	for _, a := range e.src.Attrs() {
		names = append(names, ds.Attr(a).Name)
	}
	sort.Strings(names)
	return names
}

// helpText documents the command language.
const helpText = `commands:
  overview                                  Fig. 5 overall view
  detail <attr>                             Fig. 6 view of one attribute
  detail3 <attr1> <attr2>                   3-D rule cube view of two attributes
  pairs <attr> <class> [n]                  screen value pairs worth comparing
  sweep <attr> <class>                      compare all significant pairs, aggregate causes
  compare <attr> <v1> <v2> <class>          the Section IV automated comparison
  drill <attr> <v1> <v2> <class> [depth]    multi-condition drill-down of a comparison
  focus [attr]                              Fig. 7/8 view of a compared attribute
  impressions                               trends / exceptions / influence
  attrs                                     list attributes
  back                                      previous view
  help                                      this text
  quit                                      end the session
`

// Run drives the explorer with a line-oriented command stream (the REPL
// behind `opmap repl`). It stops at EOF or "quit". Command errors are
// reported to the output and do not end the session.
func (e *Explorer) Run(r io.Reader, w io.Writer) error {
	if err := e.Overview(w); err != nil {
		return err
	}
	sc := bufio.NewScanner(r)
	for {
		fmt.Fprint(w, "opmap> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if done := e.exec(w, line); done {
			return nil
		}
	}
	return sc.Err()
}

// RunScript executes newline-separated commands (the testable entry
// point; `opmap repl` feeds it the terminal). Returns the first I/O
// error; command errors are printed and skipped.
func (e *Explorer) RunScript(script string, w io.Writer) error {
	if err := e.Overview(w); err != nil {
		return err
	}
	for _, raw := range strings.Split(script, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fmt.Fprintf(w, "opmap> %s\n", line)
		if done := e.exec(w, line); done {
			break
		}
	}
	return nil
}

// exec parses and executes one command line; returns true on quit.
func (e *Explorer) exec(w io.Writer, line string) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false
	}
	var err error
	switch fields[0] {
	case "quit", "exit":
		return true
	case "help":
		fmt.Fprint(w, helpText)
	case "attrs":
		for _, n := range e.Attributes() {
			fmt.Fprintln(w, n)
		}
	case "overview":
		err = e.Overview(w)
	case "detail":
		if len(fields) != 2 {
			err = fmt.Errorf("usage: detail <attr>")
		} else {
			err = e.Detail(w, fields[1])
		}
	case "detail3":
		if len(fields) != 3 {
			err = fmt.Errorf("usage: detail3 <attr1> <attr2>")
		} else {
			err = e.Detail3D(w, fields[1], fields[2])
		}
	case "pairs":
		switch len(fields) {
		case 3:
			err = e.Pairs(w, fields[1], fields[2], 10)
		case 4:
			n := 0
			if _, serr := fmt.Sscanf(fields[3], "%d", &n); serr != nil || n < 1 {
				err = fmt.Errorf("usage: pairs <attr> <class> [n]")
			} else {
				err = e.Pairs(w, fields[1], fields[2], n)
			}
		default:
			err = fmt.Errorf("usage: pairs <attr> <class> [n]")
		}
	case "sweep":
		if len(fields) != 3 {
			err = fmt.Errorf("usage: sweep <attr> <class>")
		} else {
			err = e.Sweep(w, fields[1], fields[2])
		}
	case "compare":
		if len(fields) != 5 {
			err = fmt.Errorf("usage: compare <attr> <v1> <v2> <class>")
		} else {
			err = e.Compare(w, fields[1], fields[2], fields[3], fields[4])
		}
	case "drill":
		switch len(fields) {
		case 5:
			err = e.Drill(w, fields[1], fields[2], fields[3], fields[4], 0)
		case 6:
			d := 0
			if _, serr := fmt.Sscanf(fields[5], "%d", &d); serr != nil || d < 1 {
				err = fmt.Errorf("usage: drill <attr> <v1> <v2> <class> [depth]")
			} else {
				err = e.Drill(w, fields[1], fields[2], fields[3], fields[4], d)
			}
		default:
			err = fmt.Errorf("usage: drill <attr> <v1> <v2> <class> [depth]")
		}
	case "focus":
		name := ""
		if len(fields) > 1 {
			name = fields[1]
		}
		err = e.Focus(w, name)
	case "impressions":
		err = e.Impressions(w)
	case "back":
		err = e.Back(w)
	default:
		err = fmt.Errorf("unknown command %q (try help)", fields[0])
	}
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
	}
	return false
}
