package opmap

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// exploreSession builds a small call-log session, eager or lazy.
func exploreSession(t *testing.T, seed int64, lazy bool) (*Session, CallLogTruth) {
	t.Helper()
	s, gt, err := GenerateCallLog(CallLogConfig{Seed: seed, Records: 60000, NoiseAttrs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubesOptions(context.Background(), BuildOptions{Lazy: lazy}); err != nil {
		t.Fatal(err)
	}
	return s, gt
}

// exploreTranscriptScript uses every REPL command, each usage error,
// unknown names of every kind, back past the start, an unknown command
// and a command after quit.
func exploreTranscriptScript(gt CallLogTruth) string {
	phone, good, bad, drop := gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass
	pair := phone + " " + good + " " + bad
	return strings.Join([]string{
		"# every command, every usage error",
		"back",
		"focus",
		"help",
		"attrs",
		"overview",
		"detail",
		"detail nope",
		"detail " + phone,
		"detail3 " + phone,
		"detail3 nope " + gt.DistinguishingAttr,
		"detail3 " + phone + " nope",
		"detail3 " + phone + " " + gt.DistinguishingAttr,
		"pairs " + phone,
		"pairs nope " + drop,
		"pairs " + phone + " nope",
		"pairs " + phone + " " + drop + " 0",
		"pairs " + phone + " " + drop + " x",
		"pairs " + phone + " " + drop,
		"pairs " + phone + " " + drop + " 3",
		"sweep " + phone,
		"sweep nope " + drop,
		"sweep " + phone + " nope",
		"sweep " + phone + " " + drop,
		"compare " + pair,
		"compare nope " + good + " " + bad + " " + drop,
		"compare " + phone + " nope " + bad + " " + drop,
		"compare " + phone + " " + good + " nope " + drop,
		"compare " + pair + " nope",
		"compare " + pair + " " + drop,
		"focus",
		"focus nope",
		"focus " + gt.PropertyAttr,
		"focus " + gt.SecondaryAttr,
		"back",
		"back",
		"drill " + pair,
		"drill " + pair + " " + drop + " 0",
		"drill " + pair + " " + drop + " x",
		"drill nope " + good + " " + bad + " " + drop,
		"drill " + pair + " nope",
		"drill " + pair + " " + drop,
		"focus",
		"drill " + pair + " " + drop + " 1",
		"impressions",
		"back",
		"back",
		"back",
		"bogus-command",
		"quit",
		"detail " + phone,
	}, "\n")
}

// normalizeErrorPrefix drops the package prefix of every "error: "
// line ("error: opmap: unknown …" reads "error: unknown …"): the prefix
// names the layer that raised the error, the rest is the behaviour the
// transcript pins.
func normalizeErrorPrefix(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		rest, ok := strings.CutPrefix(l, "error: ")
		if !ok {
			continue
		}
		if pkg, msg, ok := strings.Cut(rest, ": "); ok && !strings.ContainsAny(pkg, " \"") {
			lines[i] = "error: " + msg
		}
	}
	return strings.Join(lines, "\n")
}

// TestExploreTranscript pins the explorer's whole command language to
// golden transcripts: every view, usage error and navigation step, on
// an eager and a lazy session of each seed, which must print the same.
func TestExploreTranscript(t *testing.T) {
	for _, seed := range []int64{1, 4} {
		golden := filepath.Join("testdata", fmt.Sprintf("explore_seed%d.golden", seed))
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, lazy := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/lazy=%t", seed, lazy), func(t *testing.T) {
				s, gt := exploreSession(t, seed, lazy)
				var buf bytes.Buffer
				if err := s.ExploreScript(exploreTranscriptScript(gt), &buf); err != nil {
					t.Fatal(err)
				}
				got := normalizeErrorPrefix(buf.String())
				if got == normalizeErrorPrefix(string(want)) {
					return
				}
				gl, wl := strings.Split(got, "\n"), strings.Split(normalizeErrorPrefix(string(want)), "\n")
				for i := 0; i < max(len(gl), len(wl)); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("transcript differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
					}
				}
			})
		}
	}
}

// navSession is the call-log session the explorer's navigation tests
// walk: pinned cubes over 30,000 records.
func navSession(t *testing.T) (*Session, CallLogTruth) {
	t.Helper()
	s, gt, err := GenerateCallLog(CallLogConfig{Seed: 8, Records: 30000, NoiseAttrs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	return s, gt
}

// cmd runs one explorer command and returns its error.
func (e *explorer) cmd(w io.Writer, line string) error {
	return e.command(w, strings.Fields(line))
}

func TestExplorerNavigationFlow(t *testing.T) {
	s, gt := navSession(t)
	var buf bytes.Buffer
	e, err := s.openExplorer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.stack) != 1 {
		t.Fatalf("depth = %d", len(e.stack))
	}
	for _, line := range []string{
		"detail " + gt.PhoneAttr,
		"compare " + gt.PhoneAttr + " " + gt.GoodPhone + " " + gt.BadPhone + " " + gt.DropClass,
		"focus",
	} {
		if err := e.cmd(&buf, line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	if len(e.stack) != 4 {
		t.Fatalf("depth = %d, want 4", len(e.stack))
	}
	// The focused attribute must be the planted one.
	if !strings.Contains(buf.String(), gt.DistinguishingAttr) {
		t.Error("focus did not surface the top attribute")
	}

	// Back pops and re-renders the comparison view.
	buf.Reset()
	if err := e.cmd(&buf, "back"); err != nil {
		t.Fatal(err)
	}
	if len(e.stack) != 3 {
		t.Fatalf("depth after back = %d", len(e.stack))
	}
	if !strings.Contains(buf.String(), "Attribute ranking") {
		t.Error("back did not re-render the comparison")
	}
}

func TestExplorerFocusProperty(t *testing.T) {
	s, gt := navSession(t)
	var buf bytes.Buffer
	e := &explorer{s: s}
	if err := e.cmd(&buf, "compare "+gt.PhoneAttr+" "+gt.GoodPhone+" "+gt.BadPhone+" "+gt.DropClass); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := e.cmd(&buf, "focus "+gt.PropertyAttr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 count") {
		t.Error("property focus missing zero-count marker")
	}
}

func TestExplorerErrors(t *testing.T) {
	s, gt := navSession(t)
	var buf bytes.Buffer
	e := &explorer{s: s}
	for _, tc := range []struct{ line, why string }{
		{"back", "back on empty history"},
		{"detail nope", "unknown attribute"},
		{"focus", "focus without a comparison"},
		{"compare " + gt.PhoneAttr + " nope " + gt.BadPhone + " " + gt.DropClass, "unknown value"},
		{"compare " + gt.PhoneAttr + " " + gt.GoodPhone + " " + gt.BadPhone + " nope", "unknown class"},
		{"pairs nope " + gt.DropClass + " 5", "unknown pairs attribute"},
	} {
		if err := e.cmd(&buf, tc.line); err == nil {
			t.Errorf("%s should fail", tc.why)
		}
	}
}

func TestRunScriptFullSession(t *testing.T) {
	s, gt := navSession(t)
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
	if err := s.ExploreScript(script, &buf); err != nil {
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
	s, gt := navSession(t)
	in := strings.NewReader("detail " + gt.PhoneAttr + "\nquit\n")
	var buf bytes.Buffer
	if err := s.Explore(in, &buf); err != nil {
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
	s, _ := navSession(t)
	var buf bytes.Buffer
	if err := s.Explore(strings.NewReader(""), &buf); err != nil {
		t.Fatal(err)
	}
}

func TestPairsCommandArgValidation(t *testing.T) {
	s, gt := navSession(t)
	var buf bytes.Buffer
	script := "pairs " + gt.PhoneAttr + " " + gt.DropClass + " not-a-number"
	if err := s.ExploreScript(script, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "usage: pairs") {
		t.Error("bad count should print usage")
	}
}

// TestExplorerCountParsing: a pairs count or drill depth that is not a
// whole decimal number prints the usage line instead of running with
// the digits in front of the first non-digit.
func TestExplorerCountParsing(t *testing.T) {
	s, gt := navSession(t)
	pair := gt.PhoneAttr + " " + gt.GoodPhone + " " + gt.BadPhone
	for _, tc := range []struct{ line, usage string }{
		{"pairs " + gt.PhoneAttr + " " + gt.DropClass + " 2x", "usage: pairs <attr> <class> [n]"},
		{"drill " + pair + " " + gt.DropClass + " 2.5", "usage: drill <attr> <v1> <v2> <class> [depth]"},
	} {
		var buf bytes.Buffer
		if err := s.ExploreScript(tc.line, &buf); err != nil {
			t.Fatal(err)
		}
		want := "opmap> " + tc.line + "\nerror: " + tc.usage + "\n"
		if !strings.HasSuffix(buf.String(), want) {
			t.Errorf("%q printed\n%s\nwant it to end with\n%s", tc.line, buf.String(), want)
		}
	}
}

func TestExplorerDetail3D(t *testing.T) {
	s, gt := navSession(t)
	var buf bytes.Buffer
	e := &explorer{s: s}
	if err := e.cmd(&buf, "detail3 "+gt.PhoneAttr+" "+gt.DistinguishingAttr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), gt.GoodPhone) {
		t.Error("3-D view missing values")
	}
	if err := e.cmd(&buf, "detail3 nope "+gt.DistinguishingAttr); err == nil {
		t.Error("unknown attribute should fail")
	}
	// Via the command language too.
	buf.Reset()
	if err := s.ExploreScript("detail3 "+gt.PhoneAttr+" "+gt.DistinguishingAttr+"\nquit", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "morning") {
		t.Error("detail3 command broken")
	}
	buf.Reset()
	if err := s.ExploreScript("detail3 onlyone", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "usage: detail3") {
		t.Error("arg validation missing")
	}
}

func TestExplorerSweepCommand(t *testing.T) {
	s, gt := navSession(t)
	var buf bytes.Buffer
	script := "sweep " + gt.PhoneAttr + " " + gt.DropClass + "\nquit"
	if err := s.ExploreScript(script, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), gt.DistinguishingAttr) {
		t.Error("sweep output missing the planted attribute")
	}
	buf.Reset()
	if err := s.ExploreScript("sweep onlyone", &buf); err != nil {
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
	s, gt := navSession(t)
	var buf bytes.Buffer
	script := strings.Join([]string{
		"drill " + gt.PhoneAttr + " " + gt.GoodPhone + " " + gt.BadPhone + " " + gt.DropClass,
		"focus",
		"quit",
	}, "\n")
	if err := s.ExploreScript(script, &buf); err != nil {
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
	if err := s.ExploreScript("drill onlyone\ndrill a b c d notanumber", &buf); err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(buf.String(), "usage: drill"); c != 2 {
		t.Errorf("malformed drill commands printed %d usage errors, want 2:\n%s", c, buf.String())
	}
}

// TestExploreDoesNotBlockAppend: an interactive session waiting for
// input holds no session lock, so an Append on the same session (and
// every query queued behind it) finishes while the REPL waits.
func TestExploreDoesNotBlockAppend(t *testing.T) {
	s, _ := exploreSession(t, 1, false)
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := s.Explore(inR, outW)
		outW.Close()
		done <- err
	}()
	// Read up to the first prompt: the REPL is now waiting for input.
	br := bufio.NewReader(outR)
	var seen []byte
	for !bytes.HasSuffix(seen, []byte("opmap> ")) {
		b, err := br.ReadByte()
		if err != nil {
			t.Fatalf("no prompt: %v", err)
		}
		seen = append(seen, b)
	}
	go io.Copy(io.Discard, br)

	row := make([]string, len(s.Attributes()))
	for i := range row {
		row[i] = "?"
	}
	appended := make(chan error, 1)
	go func() { appended <- s.Append([][]string{row}) }()
	var err error
	select {
	case err = <-appended:
	case <-time.After(5 * time.Second):
		t.Error("Append did not finish while the explorer waited for input")
		inW.Close() // end the session, which lets the Append through
		err = <-appended
	}
	if err != nil {
		t.Fatal(err)
	}
	inW.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := s.NumRows(); n != 60001 {
		t.Errorf("NumRows = %d after appending one row to 60000", n)
	}
}
