package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"opmap/internal/lint"
)

// TestSelfLint runs the full engine over this module with every
// analyzer and the project allowlist, and asserts zero diagnostics.
// This is the invariant CI enforces; keeping it as a test means
// `go test ./...` alone catches a change that introduces a finding.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	res, err := lint.Drive(lint.DriverConfig{
		Patterns: []string{"./..."},
		Dir:      root,
		Allow:    lint.Allowlist,
	})
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if res.ModulePath != "opmap" {
		t.Fatalf("module path = %q, want opmap", res.ModulePath)
	}
	for _, d := range res.Diags {
		t.Errorf("finding: %s", d)
	}
}
