// Command opmaplint runs the project's static analyzers (package
// internal/lint) over Go packages and reports diagnostics, exiting
// non-zero on any finding. It is part of the tier-1 CI gate (see
// ci.sh):
//
//	go run ./cmd/opmaplint -format sarif ./... > lint.sarif
//
// The engine type-checks the module's packages one at a time in
// dependency order and runs every analyzer on each; accepted
// exceptions live in the compiled-in, justified allowlist
// (internal/lint/allow.go). Output formats: text (compiler-style),
// json (for scripts), sarif (for code-scanning UIs). The engine is
// zero-dependency: go/parser, go/types and the stdlib source importer
// only.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"opmap/internal/lint"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable entry point. Exit status: 0 clean, 1
// findings, 2 operational error.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("opmaplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text, json, or sarif")
	fs.Usage = func() { usage(stderr, fs) }
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "opmaplint: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}

	res, err := lint.Drive(lint.DriverConfig{
		Patterns:  fs.Args(),
		Analyzers: lint.All,
		Allow:     lint.Allowlist,
	})
	if err != nil {
		fmt.Fprintln(stderr, "opmaplint:", err)
		return 2
	}

	rep := lint.BuildReport(res)
	switch *format {
	case "text":
		err = rep.WriteText(stdout)
	case "json":
		err = rep.WriteJSON(stdout)
	case "sarif":
		err = rep.WriteSARIF(stdout, lint.All)
	}
	if err != nil {
		fmt.Fprintln(stderr, "opmaplint:", err)
		return 2
	}
	fmt.Fprintln(stderr, rep.Summary())
	if len(rep.Findings) > 0 {
		return 1
	}
	return 0
}

func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "usage: opmaplint [flags] [packages]")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "Runs the project's static analyzers over the given package patterns")
	fmt.Fprintln(w, "(default ./...). Exit status: 0 clean, 1 findings, 2 operational error.")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "Flags:")
	fs.PrintDefaults()
	fmt.Fprintln(w, "")
	fmt.Fprintf(w, "Analyzers (%s):\n", lint.EngineVersion)
	for _, a := range lint.All {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
}
