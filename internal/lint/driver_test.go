package lint_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"opmap/internal/lint"
)

// writeTestModule lays out a tiny two-package module in a temp dir:
// demo/a carries one deliberate floatcmp violation, demo/b imports a
// and is clean. Neither package imports the standard library, so the
// driver never has to consult the installed stdlib export data.
func writeTestModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"a/a.go": `// Package a is driver-test fodder.
package a

// Eq compares floats exactly, which floatcmp must flag.
func Eq(x, y float64) bool { return x == y }

// Sum is clean.
func Sum(x, y float64) float64 { return x + y }
`,
		"b/b.go": `// Package b depends on a.
package b

import "demo/a"

// UsesA exercises the in-module import edge.
func UsesA() float64 { return a.Sum(1, 2) }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// drive runs the engine over the test module with only floatcmp
// enabled, so the expected finding set is exactly one diagnostic.
func drive(t *testing.T, root string) *lint.DriverResult {
	t.Helper()
	res, err := lint.Drive(lint.DriverConfig{
		Patterns:  []string{"./..."},
		Dir:       root,
		Analyzers: []*lint.Analyzer{lint.FloatCmp},
	})
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	return res
}

// TestDriveColdThenWarm checks a run over the two-package module: both
// packages are type-checked (b through its in-module import of a) and
// the planted floatcmp finding is the only diagnostic, with a
// module-root-relative filename. A second run over the unchanged tree
// reports the identical finding: the driver keeps no state between
// runs.
func TestDriveColdThenWarm(t *testing.T) {
	root := writeTestModule(t)
	cold := drive(t, root)
	if cold.Packages != 2 || cold.ModulePath != "demo" {
		t.Fatalf("packages=%d module=%q, want 2/demo", cold.Packages, cold.ModulePath)
	}
	if len(cold.Diags) != 1 {
		t.Fatalf("diags = %v, want exactly the planted floatcmp finding", cold.Diags)
	}
	if d := cold.Diags[0]; d.Analyzer != "floatcmp" || d.Pos.Filename != filepath.Join("a", "a.go") {
		t.Fatalf("unexpected diagnostic %+v", d)
	}
	warm := drive(t, root)
	if len(warm.Diags) != 1 || warm.Diags[0].String() != cold.Diags[0].String() {
		t.Fatalf("second run diags %v differ from first %v", warm.Diags, cold.Diags)
	}
}

func TestReportFormats(t *testing.T) {
	root := writeTestModule(t)
	rep := lint.BuildReport(drive(t, root))

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded lint.Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON output does not round-trip: %v", err)
	}
	if len(decoded.Findings) != 1 || decoded.Findings[0].Analyzer != "floatcmp" {
		t.Fatalf("decoded findings = %+v", decoded.Findings)
	}

	buf.Reset()
	if err := rep.WriteSARIF(&buf, []*lint.Analyzer{lint.FloatCmp}); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var sarif struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &sarif); err != nil {
		t.Fatalf("SARIF output is not JSON: %v", err)
	}
	if sarif.Version != "2.1.0" || len(sarif.Runs) != 1 {
		t.Fatalf("sarif version=%q runs=%d", sarif.Version, len(sarif.Runs))
	}
	if rs := sarif.Runs[0].Results; len(rs) != 1 || rs[0].RuleID != "floatcmp" {
		t.Fatalf("sarif results = %+v", sarif.Runs[0].Results)
	}
}
