package opmap

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is the interactive exploration session at the heart of the
// deployed Opportunity Map: the user moves between the overall view,
// detailed attribute views and comparisons through primitive
// operations (Section I: "each operation is primitive and has to be
// initiated by the user"), with the comparator automating the
// expensive step. A small line-oriented command language drives it —
// the scriptable, testable equivalent of the GUI. Every view is one
// Session, Comparison or DrillResult call, so each command takes the
// session lock only for that call and its answer comes through the
// result cache; an Append never waits for an interactive session to
// end.

// Explore runs an interactive exploration session (the deployed
// system's GUI workflow as a line-oriented REPL): overview → detail →
// pairs → compare → focus, with navigation history. Commands are read
// from r until EOF or "quit"; see the REPL's "help" for the command
// language. Rule cubes must be built, eagerly or lazily: the opening
// overview fails, before anything is written, when they are not.
func (s *Session) Explore(r io.Reader, w io.Writer) error {
	e, err := s.openExplorer(w)
	if err != nil {
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

// ExploreScript executes a newline-separated command script against an
// exploration session, writing the transcript to w (the scriptable
// variant of Explore). Blank lines and lines starting with "#" are
// skipped; command errors are printed and do not stop the script.
func (s *Session) ExploreScript(script string, w io.Writer) error {
	e, err := s.openExplorer(w)
	if err != nil {
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

// explorer is one exploration session's navigation history.
type explorer struct {
	s     *Session
	stack []view
}

// openExplorer starts an exploration session on the overall view.
func (s *Session) openExplorer(w io.Writer) (*explorer, error) {
	e := &explorer{s: s}
	return e, e.push(w, view{render: s.RenderOverall})
}

// view is one entry in the navigation history.
type view struct {
	// render redraws the view (history replay after "back").
	render func(w io.Writer) error
	// cmp is the comparison backing "focus" follow-ups, if any.
	cmp *Comparison
}

// push renders a view and records it.
func (e *explorer) push(w io.Writer, v view) error {
	if err := v.render(w); err != nil {
		return err
	}
	e.stack = append(e.stack, v)
	return nil
}

// back pops the current view and re-renders the previous one.
func (e *explorer) back(w io.Writer) error {
	if len(e.stack) <= 1 {
		return fmt.Errorf("opmap: nothing to go back to")
	}
	e.stack = e.stack[:len(e.stack)-1]
	return e.stack[len(e.stack)-1].render(w)
}

// compare pushes a comparison view: the ranking plus the property list.
func (e *explorer) compare(w io.Writer, attr, v1, v2, class string) error {
	c, err := e.s.Compare(attr, v1, v2, class, CompareOptions{})
	if err != nil {
		return err
	}
	return e.push(w, view{cmp: c, render: func(w io.Writer) error {
		fmt.Fprintf(w, "compare %s: %s (%.3f%%) vs %s (%.3f%%) on %s\n",
			c.Attr, c.Label1, 100*c.Cf1, c.Label2, 100*c.Cf2, c.Class)
		c.RenderRanking(w, 10)
		return nil
	}})
}

// drill pushes a multi-condition drill-down view: the comparison's
// highest-contribution branches expanded into condition conjunctions.
// depth 0 uses the default (two conditions). The view keeps the root
// comparison, so "focus" follow-ups work as after "compare".
func (e *explorer) drill(w io.Writer, attr, v1, v2, class string, depth int) error {
	r, err := e.s.DrillDown(attr, v1, v2, class, DrillOptions{MaxDepth: depth})
	if err != nil {
		return err
	}
	return e.push(w, view{cmp: r.Root, render: func(w io.Writer) error {
		fmt.Fprintf(w, "drill %s: %s (%.3f%%) vs %s (%.3f%%) on %s, measure=%s\n",
			r.Attr, r.Label1, 100*r.Cf1, r.Label2, 100*r.Cf2, r.Class, r.Measure)
		fmt.Fprintf(w, "%-3s %-44s %8s %9s %9s %7s\n", "#", "conditions", "score", "rate-lo", "rate-hi", "n-hi")
		for i, f := range r.Top(10) {
			conds := make([]string, len(f.Conds))
			for k, c := range f.Conds {
				conds[k] = c.Attr + "=" + c.Value
			}
			fmt.Fprintf(w, "%-3d %-44s %8.4f %8.3f%% %8.3f%% %7d\n",
				i+1, strings.Join(conds, " ∧ "), f.Score, 100*f.Cf1, 100*f.Cf2, f.N2)
		}
		if r.Partial {
			fmt.Fprintf(w, "(partial: %d branches unexplored)\n", len(r.Unexplored))
		}
		return nil
	}})
}

// focus pushes the Fig. 7 view of one attribute of the current
// comparison (its rank-1 attribute when name is empty), or the Fig. 8
// view when the attribute is a property attribute.
func (e *explorer) focus(w io.Writer, name string) error {
	var c *Comparison
	if n := len(e.stack); n > 0 {
		c = e.stack[n-1].cmp
	}
	if c == nil {
		return fmt.Errorf("opmap: focus requires a comparison view; run compare first")
	}
	if name == "" {
		top := c.Top(1)
		if len(top) == 0 {
			return fmt.Errorf("opmap: the comparison ranked no attributes")
		}
		name = top[0].Name
	}
	score, ok := c.Attribute(name)
	if !ok {
		return fmt.Errorf("opmap: attribute %q not in the comparison", name)
	}
	render := c.RenderAttribute
	if score.Property {
		render = c.RenderProperty
	}
	return e.push(w, view{cmp: c, render: func(w io.Writer) error { return render(w, name) }})
}

// pairs pushes the screening view of an attribute's value pairs.
func (e *explorer) pairs(w io.Writer, attr, class string, topN int) error {
	ps, err := e.s.ScreenPairs(attr, class, topN)
	if err != nil {
		return err
	}
	return e.push(w, view{render: func(w io.Writer) error {
		fmt.Fprintf(w, "%-14s %-14s %9s %9s %7s %9s\n", "low", "high", "rate-lo", "rate-hi", "z", "q")
		for _, p := range ps {
			fmt.Fprintf(w, "%-14s %-14s %8.3f%% %8.3f%% %7.1f %9.2g\n",
				p.Value1, p.Value2, 100*p.Cf1, 100*p.Cf2, p.Z, p.QValue)
		}
		return nil
	}})
}

// sweep pushes the systemic-vs-specific summary: every significant
// pair of attr compared, distinguishing attributes aggregated.
func (e *explorer) sweep(w io.Writer, attr, class string) error {
	r, err := e.s.Sweep(attr, class, 0)
	if err != nil {
		return err
	}
	return e.push(w, view{render: func(w io.Writer) error {
		fmt.Fprintf(w, "swept %d significant pairs (%d skipped)\n", r.PairsCompared, r.PairsSkipped)
		for _, sa := range r.Attributes {
			fmt.Fprintf(w, "  %-28s pairs=%-3d best M=%.1f (%s vs %s)\n",
				sa.Name, sa.Pairs, sa.BestScore, sa.BestPair[0], sa.BestPair[1])
		}
		return nil
	}})
}

// renderImpressions writes the GI-miner summary view.
func (e *explorer) renderImpressions(w io.Writer) error {
	imp, err := e.s.Impressions(ImpressionOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Influential attributes:")
	for i, inf := range imp.Influential[:min(8, len(imp.Influential))] {
		fmt.Fprintf(w, "  %2d. %-28s chi2=%.1f MI=%.5f\n", i+1, inf.Attr, inf.ChiSquare, inf.MutualInformation)
	}
	fmt.Fprintln(w, "Trends:")
	for _, tr := range imp.Trends {
		fmt.Fprintf(w, "  %s: %s is %s\n", tr.Class, tr.Attr, tr.Kind)
	}
	return nil
}

// servedAttributes returns the names of the attributes the cube engine
// serves, sorted.
func (s *Session) servedAttributes() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(src.Attrs()))
	for _, a := range src.Attrs() {
		names = append(names, s.ds.Attr(a).Name)
	}
	sort.Strings(names)
	return names, nil
}

// exploreHelp documents the command language.
const exploreHelp = `commands:
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

// optCount parses the optional count that ends a pairs or drill command
// of n fields plus the count: def when absent, ok=false when the
// command has the wrong number of fields or the count is not a decimal
// integer ≥ 1 ("2x" and "2.5" are rejected, not read as 2).
func optCount(fields []string, n, def int) (int, bool) {
	switch len(fields) {
	case n:
		return def, true
	case n + 1:
		if v, err := strconv.Atoi(fields[n]); err == nil && v >= 1 {
			return v, true
		}
	}
	return 0, false
}

// exec runs one command line, printing its error; it returns true on
// quit. Command errors do not end the session.
func (e *explorer) exec(w io.Writer, line string) bool {
	f := strings.Fields(line)
	if f[0] == "quit" || f[0] == "exit" {
		return true
	}
	if err := e.command(w, f); err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
	}
	return false
}

// command runs one command, given as its fields.
func (e *explorer) command(w io.Writer, f []string) error {
	switch f[0] {
	case "help":
		fmt.Fprint(w, exploreHelp)
		return nil
	case "attrs":
		names, err := e.s.servedAttributes()
		for _, n := range names {
			fmt.Fprintln(w, n)
		}
		return err
	case "overview":
		return e.push(w, view{render: e.s.RenderOverall})
	case "detail":
		if len(f) != 2 {
			return fmt.Errorf("usage: detail <attr>")
		}
		return e.push(w, view{render: func(w io.Writer) error { return e.s.RenderDetailed(w, f[1]) }})
	case "detail3":
		if len(f) != 3 {
			return fmt.Errorf("usage: detail3 <attr1> <attr2>")
		}
		return e.push(w, view{render: func(w io.Writer) error { return e.s.RenderDetailed3D(w, f[1], f[2]) }})
	case "pairs":
		n, ok := optCount(f, 3, 10)
		if !ok {
			return fmt.Errorf("usage: pairs <attr> <class> [n]")
		}
		return e.pairs(w, f[1], f[2], n)
	case "sweep":
		if len(f) != 3 {
			return fmt.Errorf("usage: sweep <attr> <class>")
		}
		return e.sweep(w, f[1], f[2])
	case "compare":
		if len(f) != 5 {
			return fmt.Errorf("usage: compare <attr> <v1> <v2> <class>")
		}
		return e.compare(w, f[1], f[2], f[3], f[4])
	case "drill":
		d, ok := optCount(f, 5, 0)
		if !ok {
			return fmt.Errorf("usage: drill <attr> <v1> <v2> <class> [depth]")
		}
		return e.drill(w, f[1], f[2], f[3], f[4], d)
	case "focus":
		name := ""
		if len(f) > 1 {
			name = f[1]
		}
		return e.focus(w, name)
	case "impressions":
		return e.push(w, view{render: e.renderImpressions})
	case "back":
		return e.back(w)
	}
	return fmt.Errorf("unknown command %q (try help)", f[0])
}
