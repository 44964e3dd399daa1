package opmap

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"opmap/internal/dataset"
)

// restoredBatch returns n rows over the case-study schema with the
// good and bad phones alternating and the classes cycling; every other
// attribute takes its first value.
func restoredBatch(t *testing.T, s *Session, gt CallLogTruth, n int) [][]string {
	t.Helper()
	attrs := s.Attributes()
	classes := s.Classes()
	first := make([]string, len(attrs))
	for i, a := range attrs {
		if a == s.ClassAttribute() {
			continue
		}
		if s.raw.Attr(i).Kind == dataset.Continuous {
			first[i] = "1"
			continue
		}
		first[i] = s.raw.Column(i).Dict.Label(0)
	}
	rows := make([][]string, n)
	for r := range rows {
		row := append([]string(nil), first...)
		for i, a := range attrs {
			switch a {
			case gt.PhoneAttr:
				row[i] = gt.GoodPhone
				if r%2 == 1 {
					row[i] = gt.BadPhone
				}
			case s.ClassAttribute():
				row[i] = classes[r%len(classes)]
			}
		}
		rows[r] = row
	}
	return rows
}

// restoredAnswers runs every query of a session that reads its rows
// or its cubes, keyed by name, for TestRestoredSessionMatchesCold.
func restoredAnswers(t *testing.T, s *Session, gt CallLogTruth, fixed map[string]string) map[string]any {
	t.Helper()
	out := map[string]any{}
	record := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = v
	}
	cmp, err := s.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	record("Compare", cmp, err)
	scan, err := scanCompare(s, gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass)
	record("Scan", scan, err)
	where, err := s.CompareWhere(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, fixed, CompareOptions{})
	record("CompareWhere", where, err)
	sweep, err := s.Sweep(gt.PhoneAttr, gt.DropClass, 3)
	record("Sweep", sweep, err)
	drill, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{})
	record("DrillDown", drill, err)
	imp, err := s.Impressions(ImpressionOptions{})
	record("Impressions", imp, err)
	sig, err := s.TestSignificance(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, gt.DistinguishingAttr, 10, 1)
	record("TestSignificance", sig, err)
	rules, err := s.MineRules(MineOptions{MaxConditions: 1})
	record("MineRules", rules, err)
	ranked, err := s.RankRules("lift", MineOptions{MaxConditions: 1})
	record("RankRules", ranked, err)
	queried, err := s.QueryRules("len <= 1", MineOptions{MaxConditions: 1})
	record("QueryRules", queried, err)
	complete, err := s.Completeness(1)
	record("Completeness", complete, err)
	var desc bytes.Buffer
	record("Describe", desc.String(), s.Describe(&desc))
	record("ClassDistribution", s.ClassDistribution(), nil)
	record("NumRows", s.NumRows(), nil)
	return out
}

// TestRestoredSessionMatchesCold: a session restored from its snapshot
// holds every source row, so after the same 3,000-row append it
// answers every query — cube reads and row scans alike — exactly as
// the session it was taken from, in both engine modes. Before the
// snapshot carried rows, a raw-row scan comparison on the restored
// session counted only the appended rows (1,500/1,500 here against the
// true 6,588/6,482).
func TestRestoredSessionMatchesCold(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		t.Run(map[bool]string{false: "eager", true: "lazy"}[lazy], func(t *testing.T) {
			cold, gt := caseStudySession(t)
			if lazy {
				if err := cold.BuildCubesOptions(context.Background(), BuildOptions{Lazy: true}); err != nil {
					t.Fatal(err)
				}
				// Leave some pair cubes resident for the snapshot to carry.
				if _, err := cold.Sweep(gt.PhoneAttr, gt.DropClass, 3); err != nil {
					t.Fatal(err)
				}
			}
			var snap bytes.Buffer
			if err := cold.SaveSnapshot(&snap, SnapshotOptions{}); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadSnapshot(&snap)
			if err != nil {
				t.Fatal(err)
			}
			if got := restored.EngineStats().Lazy; got != lazy {
				t.Fatalf("restored engine lazy = %v, want %v", got, lazy)
			}
			batch := restoredBatch(t, cold, gt, 3000)
			for _, s := range []*Session{cold, restored} {
				if err := s.Append(batch); err != nil {
					t.Fatal(err)
				}
			}
			fixed := map[string]string{gt.DistinguishingAttr: cold.ds.Column(cold.ds.AttrIndex(gt.DistinguishingAttr)).Dict.Label(0)}
			want, got := restoredAnswers(t, cold, gt, fixed), restoredAnswers(t, restored, gt, fixed)
			for name, w := range want {
				if !reflect.DeepEqual(w, got[name]) {
					t.Errorf("%s: restored answer differs from the cold session's", name)
				}
			}
			scan := got["Scan"].(*Comparison).res
			if n1, n2 := scan.Rule1.CondCount, scan.Rule2.CondCount; n1 != 6588 || n2 != 6482 {
				t.Errorf("restored scan comparison counts %d/%d, want 6588/6482", n1, n2)
			}

			// Re-discretizing re-derives the same working dataset from the
			// same rows.
			for _, s := range []*Session{cold, restored} {
				if err := s.Discretize(DiscretizeOptions{}); err != nil {
					t.Fatal(err)
				}
				if err := s.BuildCubes(); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(cold.Cuts(), restored.Cuts()) {
				t.Errorf("re-Discretize cuts differ: cold %v, restored %v", cold.Cuts(), restored.Cuts())
			}
			wc, err := cold.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gc, err := restored.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wc, gc) {
				t.Error("Compare after re-Discretize differs from the cold session's")
			}
		})
	}
}
