package report

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"opmap/internal/compare"
	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/gi"
	"opmap/internal/workload"
)

// pinned counts every 1-D and pair cube of ds and pins them, the
// engine an eager session serves.
func pinned(t *testing.T, ds *dataset.Dataset) *engine.LazySource {
	t.Helper()
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.PinAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return src
}

func fixture(t *testing.T) (*compare.Result, *gi.Report, workload.GroundTruth) {
	t.Helper()
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 33, Records: 30000, NoiseAttrs: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := pinned(t, ds)
	attr := ds.AttrIndex(gt.PhoneAttr)
	v1, _ := ds.Column(attr).Dict.Lookup(gt.GoodPhone)
	v2, _ := ds.Column(attr).Dict.Lookup(gt.BadPhone)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	res, err := compare.NewSource(src).Compare(compare.Input{Attr: attr, V1: v1, V2: v2, Class: cls}, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := gi.MineAllSource(context.Background(), src, gi.TrendOptions{}, gi.ExceptionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res, imp, gt
}

func TestComparisonReportContent(t *testing.T) {
	res, imp, gt := fixture(t)
	var buf bytes.Buffer
	err := Comparison(&buf, res, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass,
		Options{Impressions: imp})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Comparison report",
		"## Input rules",
		"## Attribute ranking",
		gt.DistinguishingAttr,
		"## Property attributes",
		gt.PropertyAttr,
		"## Evidence for the top",
		"morning",
		"## Appendix: general impressions",
		"Influential attributes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The gap concentrates in the morning — the focus line must say so.
	if !strings.Contains(out, "concentrates in **morning**") {
		t.Error("missing focus line for the planted concentration")
	}
	// No timestamp by default (deterministic output).
	if strings.Contains(out, "_Generated") {
		t.Error("unexpected timestamp without Generated option")
	}
}

func TestComparisonReportDeterministic(t *testing.T) {
	res, imp, gt := fixture(t)
	render := func() string {
		var buf bytes.Buffer
		if err := Comparison(&buf, res, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass,
			Options{Impressions: imp}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Error("report is not deterministic")
	}
}

func TestComparisonReportOptions(t *testing.T) {
	res, _, gt := fixture(t)
	var buf bytes.Buffer
	ts := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	err := Comparison(&buf, res, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass,
		Options{Title: "Custom Title", TopN: 1, Generated: ts})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# Custom Title") {
		t.Error("custom title missing")
	}
	if !strings.Contains(out, "2026-07-05T12:00:00Z") {
		t.Error("timestamp missing")
	}
	if !strings.Contains(out, "top 1 attributes") {
		t.Error("TopN not reflected")
	}
	// Only one detailed section.
	if strings.Count(out, "### ") != 1 {
		t.Errorf("expected 1 detailed section, got %d", strings.Count(out, "### "))
	}
}

func TestEscapeCell(t *testing.T) {
	if escapeCell("a|b") != "a\\|b" {
		t.Error("pipe not escaped")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > 100 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestComparisonReportPropagatesWriteError(t *testing.T) {
	res, _, gt := fixture(t)
	err := Comparison(&failWriter{}, res, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, Options{})
	if err == nil {
		t.Error("write error swallowed")
	}
}

func TestHottestValueSpread(t *testing.T) {
	// D1 has a flat 10% rate over three values. Raw confidences make
	// each value's W = C2 − ΣC2/3.
	focus := func(c2 []int64) string {
		t.Helper()
		n := []int64{10, 10, 10}
		s, res, err := compare.CompareValues("x", []string{"a", "b", "c"}, n, []int64{1, 1, 1}, n, c2, compare.Options{DisableCI: true})
		if err != nil {
			t.Fatal(err)
		}
		return hottestValue(&res, s)
	}
	// W = (1, 1, 0): no value carries more than half of M = 2.
	if focus([]int64{4, 4, 1}) != "" {
		t.Error("spread contributions should yield no focus")
	}
	// W = (0, 0, 4): c carries all of M = 4.
	if focus([]int64{1, 1, 7}) != "c" {
		t.Error("dominant value not detected")
	}
	if hottestValue(&compare.Result{}, compare.AttrScore{}) != "" {
		t.Error("zero score should yield no focus")
	}
}

func TestSweepReport(t *testing.T) {
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 44, Records: 40000, NoiseAttrs: 1})
	if err != nil {
		t.Fatal(err)
	}
	phone := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	sweep, err := compare.NewSource(pinned(t, ds)).SweepContext(context.Background(), phone, cls, compare.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Sweep(&buf, gt.PhoneAttr, gt.DropClass, sweep, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Sweep report",
		"Recurrent distinguishing attributes",
		gt.DistinguishingAttr,
		"Per-pair outcomes",
		gt.BadPhone,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep report missing %q", want)
		}
	}
	// Write errors propagate.
	if err := Sweep(&failWriter{}, gt.PhoneAttr, gt.DropClass, sweep, Options{}); err == nil {
		t.Error("write error swallowed")
	}
}
