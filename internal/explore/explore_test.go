package explore

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"opmap/internal/engine"
	"opmap/internal/workload"
)

func explorer(t *testing.T) (*Explorer, workload.GroundTruth) {
	t.Helper()
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 8, Records: 30000, NoiseAttrs: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.PinAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return New(src), gt
}

func TestExplorerNavigationFlow(t *testing.T) {
	e, gt := explorer(t)
	var buf bytes.Buffer

	if err := e.Overview(&buf); err != nil {
		t.Fatal(err)
	}
	if e.Depth() != 1 {
		t.Fatalf("depth = %d", e.Depth())
	}
	if err := e.Detail(&buf, gt.PhoneAttr); err != nil {
		t.Fatal(err)
	}
	if err := e.Compare(&buf, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass); err != nil {
		t.Fatal(err)
	}
	if err := e.Focus(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if e.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", e.Depth())
	}
	// The focused attribute must be the planted one.
	if !strings.Contains(buf.String(), gt.DistinguishingAttr) {
		t.Error("focus did not surface the top attribute")
	}

	// Back pops and re-renders the comparison view.
	buf.Reset()
	if err := e.Back(&buf); err != nil {
		t.Fatal(err)
	}
	if e.Depth() != 3 {
		t.Fatalf("depth after back = %d", e.Depth())
	}
	if !strings.Contains(buf.String(), "Attribute ranking") {
		t.Error("back did not re-render the comparison")
	}
}

func TestExplorerFocusProperty(t *testing.T) {
	e, gt := explorer(t)
	var buf bytes.Buffer
	if err := e.Compare(&buf, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := e.Focus(&buf, gt.PropertyAttr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 count") {
		t.Error("property focus missing zero-count marker")
	}
}

func TestExplorerErrors(t *testing.T) {
	e, gt := explorer(t)
	var buf bytes.Buffer
	if err := e.Back(&buf); err == nil {
		t.Error("back on empty history should fail")
	}
	if err := e.Detail(&buf, "nope"); err == nil {
		t.Error("unknown attribute should fail")
	}
	if err := e.Focus(&buf, ""); err == nil {
		t.Error("focus without a comparison should fail")
	}
	if err := e.Compare(&buf, gt.PhoneAttr, "nope", gt.BadPhone, gt.DropClass); err == nil {
		t.Error("unknown value should fail")
	}
	if err := e.Compare(&buf, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, "nope"); err == nil {
		t.Error("unknown class should fail")
	}
	if err := e.Pairs(&buf, "nope", gt.DropClass, 5); err == nil {
		t.Error("unknown pairs attribute should fail")
	}
}

func TestRunScriptFullSession(t *testing.T) {
	e, gt := explorer(t)
	script := strings.Join([]string{
		"# a typical investigation",
		"attrs",
		"detail " + gt.PhoneAttr,
		"pairs " + gt.PhoneAttr + " " + gt.DropClass + " 3",
		"compare " + gt.PhoneAttr + " " + gt.GoodPhone + " " + gt.BadPhone + " " + gt.DropClass,
		"focus",
		"back",
		"focus " + gt.PropertyAttr,
		"impressions",
		"bogus-command",
		"help",
		"quit",
		"detail should-never-run",
	}, "\n")
	var buf bytes.Buffer
	if err := e.RunScript(script, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Overall visualization",           // initial overview
		gt.PhoneAttr,                      // attrs + detail
		"rate-lo",                         // pairs header
		"Attribute ranking",               // compare
		gt.DistinguishingAttr,             // focus on top attribute
		"0 count",                         // property focus
		"Influential attributes",          // impressions
		`unknown command "bogus-command"`, // error handling
		"commands:",                       // help
	} {
		if !strings.Contains(out, want) {
			t.Errorf("session transcript missing %q", want)
		}
	}
	if strings.Contains(out, "should-never-run") {
		t.Error("commands after quit must not run")
	}
}

func TestRunScannerSession(t *testing.T) {
	e, gt := explorer(t)
	in := strings.NewReader("detail " + gt.PhoneAttr + "\nquit\n")
	var buf bytes.Buffer
	if err := e.Run(in, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "opmap> ") {
		t.Error("prompt missing")
	}
	if !strings.Contains(buf.String(), gt.GoodPhone) {
		t.Error("detail view missing")
	}
}

func TestRunStopsAtEOF(t *testing.T) {
	e, _ := explorer(t)
	var buf bytes.Buffer
	if err := e.Run(strings.NewReader(""), &buf); err != nil {
		t.Fatal(err)
	}
}

func TestPairsCommandArgValidation(t *testing.T) {
	e, gt := explorer(t)
	var buf bytes.Buffer
	script := "pairs " + gt.PhoneAttr + " " + gt.DropClass + " not-a-number"
	if err := e.RunScript(script, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "usage: pairs") {
		t.Error("bad count should print usage")
	}
}

func TestExplorerDetail3D(t *testing.T) {
	e, gt := explorer(t)
	var buf bytes.Buffer
	if err := e.Detail3D(&buf, gt.PhoneAttr, gt.DistinguishingAttr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), gt.GoodPhone) {
		t.Error("3-D view missing values")
	}
	if err := e.Detail3D(&buf, "nope", gt.DistinguishingAttr); err == nil {
		t.Error("unknown attribute should fail")
	}
	// Via the command language too.
	buf.Reset()
	if err := e.RunScript("detail3 "+gt.PhoneAttr+" "+gt.DistinguishingAttr+"\nquit", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "morning") {
		t.Error("detail3 command broken")
	}
	buf.Reset()
	if err := e.RunScript("detail3 onlyone", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "usage: detail3") {
		t.Error("arg validation missing")
	}
}

func TestExplorerSweepCommand(t *testing.T) {
	e, gt := explorer(t)
	var buf bytes.Buffer
	script := "sweep " + gt.PhoneAttr + " " + gt.DropClass + "\nquit"
	if err := e.RunScript(script, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), gt.DistinguishingAttr) {
		t.Error("sweep output missing the planted attribute")
	}
	buf.Reset()
	if err := e.RunScript("sweep onlyone", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "usage: sweep") {
		t.Error("arg validation missing")
	}
}

// TestExplorerDrillCommand runs a drill-down through the command
// language: the view renders scored condition paths, keeps the root
// comparison for focus follow-ups, and validates its arguments.
func TestExplorerDrillCommand(t *testing.T) {
	e, gt := explorer(t)
	var buf bytes.Buffer
	script := strings.Join([]string{
		"drill " + gt.PhoneAttr + " " + gt.GoodPhone + " " + gt.BadPhone + " " + gt.DropClass,
		"focus",
		"quit",
	}, "\n")
	if err := e.RunScript(script, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "measure=paper") {
		t.Errorf("drill view missing the measure header:\n%s", out)
	}
	if !strings.Contains(out, "conditions") {
		t.Errorf("drill view missing the findings table:\n%s", out)
	}
	// The planted attribute drives the comparison, so it must appear in
	// some finding's condition path.
	if !strings.Contains(out, gt.DistinguishingAttr+"=") {
		t.Errorf("no finding conditions on %s:\n%s", gt.DistinguishingAttr, out)
	}
	// focus after drill works off the kept root comparison.
	if strings.Contains(out, "focus requires a comparison view") {
		t.Error("focus did not see the drill view's root comparison")
	}

	buf.Reset()
	if err := e.RunScript("drill onlyone\ndrill a b c d notanumber", &buf); err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(buf.String(), "usage: drill"); c != 2 {
		t.Errorf("malformed drill commands printed %d usage errors, want 2:\n%s", c, buf.String())
	}
}
