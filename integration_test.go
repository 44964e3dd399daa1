package opmap

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/workload"
)

// TestFullPipelineCSVToReport exercises the entire user-visible flow the
// way the deployed system runs it: generate data → export CSV (the
// customer's file) → load → discretize → build cubes → snapshot →
// reload → screen pairs → compare → drill down with a where-clause →
// write the report. Every artifact crosses a serialization boundary.
func TestFullPipelineCSVToReport(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "calls.csv")
	snapPath := filepath.Join(dir, "calls.omapsnap")

	// 1. The "customer data": synthetic call log written to CSV.
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 1234, Records: 40000, NoiseAttrs: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSVFile(csvPath, ds); err != nil {
		t.Fatal(err)
	}

	// 2. Load and run the offline stage.
	s, err := LoadCSVFile(csvPath, LoadOptions{Class: "Disposition"})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 40000 {
		t.Fatalf("rows = %d", s.NumRows())
	}
	if err := s.Discretize(DiscretizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshotFile(snapPath, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}

	// 3. The interactive stage runs from the snapshot alone.
	live, err := LoadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := live.ScreenPairs(gt.PhoneAttr, gt.DropClass, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatal("screening found nothing")
	}
	top := pairs[0]
	if top.Value2 != gt.BadPhone {
		t.Errorf("screened pair (%s,%s), planted bad phone %s", top.Value1, top.Value2, gt.BadPhone)
	}
	cmp, err := live.Compare(gt.PhoneAttr, top.Value1, top.Value2, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Top(1)[0].Name != gt.DistinguishingAttr {
		t.Fatalf("pipeline top attribute = %q, want %q", cmp.Top(1)[0].Name, gt.DistinguishingAttr)
	}

	// 4. Drill down with a where-clause on the reloaded session: the
	// snapshot carries the rows.
	within, err := live.CompareWhere(gt.PhoneAttr, top.Value1, top.Value2, gt.DropClass,
		map[string]string{gt.DistinguishingAttr: "morning"}, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if within.Cf2 <= cmp.Cf2 {
		t.Errorf("drill-down rate %.4f should exceed overall %.4f", within.Cf2, cmp.Cf2)
	}

	// 5. The report ties it together.
	var buf bytes.Buffer
	if err := live.WriteReport(&buf, cmp, ReportOptions{TopN: 3, IncludeImpressions: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{gt.DistinguishingAttr, gt.PropertyAttr, "morning", "Attribute ranking"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestPipelineWithUnbalancedSampling mirrors the paper's pre-mining
// step: down-sample the majority class, then verify the comparison still
// recovers the planted attribute (rates change, the structure does not).
func TestPipelineWithUnbalancedSampling(t *testing.T) {
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 5, Records: 80000, NoiseAttrs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := dataset.UnbalancedSample(ds, dataset.SampleOptions{
		Seed:         1,
		KeepFraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.NumRows() >= ds.NumRows() {
		t.Fatal("sampling did not shrink the data")
	}
	s := sessionFromDataset(t, sampled)
	cmp, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Top(1)[0].Name != gt.DistinguishingAttr {
		t.Errorf("after sampling, top = %q, want %q", cmp.Top(1)[0].Name, gt.DistinguishingAttr)
	}
	// Rates inflate under sampling, but orientation must hold.
	if cmp.Cf1 >= cmp.Cf2 {
		t.Error("orientation broken after sampling")
	}
}

// sessionFromDataset adapts an internal dataset into a public Session by
// round-tripping through CSV (the only public ingestion path).
func sessionFromDataset(t *testing.T, ds *dataset.Dataset) *Session {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	s, err := LoadCSV(&buf, LoadOptions{Class: ds.Attr(ds.ClassIndex()).Name})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Discretize(DiscretizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	return s
}
