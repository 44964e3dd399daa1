package lint

import (
	"encoding/json"
	"fmt"
	"io"
)

// Machine-readable exposition. The driver produces one Report per run;
// text is for humans and the terminal, json for scripts, and
// sarif for code-scanning UIs (GitHub's security tab renders SARIF
// uploads inline on the diff). All three render the same Report, so a
// finding can never appear in one format and not another.

// EngineVersion names the analyzer engine in SARIF output and the
// CLI's help text.
const EngineVersion = "opmaplint/3.0.0"

// Finding is one diagnostic flattened for exposition.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Symbol   string `json:"symbol,omitempty"`
	Message  string `json:"message"`
}

// Report is one run's complete machine-readable result.
type Report struct {
	Module   string    `json:"module"`
	Packages int       `json:"packages"`
	Findings []Finding `json:"findings"`
}

// BuildReport assembles the Report from a driver result, keeping the
// driver's position order.
func BuildReport(res *DriverResult) *Report {
	rep := &Report{
		Module:   res.ModulePath,
		Packages: res.Packages,
		Findings: make([]Finding, 0, len(res.Diags)),
	}
	for _, d := range res.Diags {
		rep.Findings = append(rep.Findings, Finding{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Symbol:   d.Symbol,
			Message:  d.Message,
		})
	}
	return rep
}

// Summary is the one-line human digest printed to stderr in every
// format, so CI logs always show the verdict.
func (r *Report) Summary() string {
	return fmt.Sprintf("opmaplint: %d packages, %d finding(s)", r.Packages, len(r.Findings))
}

// WriteText prints compiler-style lines for every finding plus a
// trailer when there are any.
func (r *Report) WriteText(w io.Writer) error {
	for _, f := range r.Findings {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message); err != nil {
			return err
		}
	}
	if n := len(r.Findings); n > 0 {
		if _, err := fmt.Fprintf(w, "opmaplint: %d finding(s)\n", n); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the full report as one indented JSON document.
func (r *Report) WriteJSON(w io.Writer) error {
	if r.Findings == nil {
		r.Findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SARIF 2.1.0 document skeleton, kept to the subset code-scanning
// consumers require.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name    string      `json:"name"`
	Version string      `json:"version"`
	Rules   []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID        string       `json:"id"`
	ShortDesc sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	Physical sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	Artifact sarifArtifact `json:"artifactLocation"`
	Region   sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF emits the report as a SARIF 2.1.0 run.
func (r *Report) WriteSARIF(w io.Writer, analyzers []*Analyzer) error {
	drv := sarifDriver{Name: "opmaplint", Version: EngineVersion}
	for _, a := range analyzers {
		drv.Rules = append(drv.Rules, sarifRule{ID: a.Name, ShortDesc: sarifMessage{Text: a.Doc}})
	}
	run := sarifRun{Tool: sarifTool{Driver: drv}, Results: []sarifResult{}}
	for _, f := range r.Findings {
		run.Results = append(run.Results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{Physical: sarifPhysical{
				Artifact: sarifArtifact{URI: f.File},
				Region:   sarifRegion{StartLine: f.Line, StartColumn: f.Column},
			}}},
		})
	}
	doc := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
