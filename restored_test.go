package opmap

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"opmap/internal/dataset"
)

// restoredAppendRows returns n rows over the case-study schema with the
// good and bad phones alternating and the classes cycling; every other
// attribute takes its first value.
func restoredAppendRows(t *testing.T, s *Session, gt CallLogTruth, n int) [][]string {
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

// TestRestoredSessionRefusesRowScans: a session restored from a
// snapshot or a cube store holds only the rows appended since the
// restore. Every path that counts the working dataset's rows itself —
// rather than reading the restored cubes — must refuse instead of
// answering over that fraction of the data (CompareByScan gave
// 1,500/1,500 here against the true 6,588/6,482). The cube path keeps
// counting everything.
func TestRestoredSessionRefusesRowScans(t *testing.T) {
	orig, gt := caseStudySession(t)
	var snap, cubes bytes.Buffer
	if err := orig.SaveSnapshot(&snap, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := orig.SaveCubes(&cubes); err != nil {
		t.Fatal(err)
	}
	fromSnap, err := LoadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	fromCubes, err := OpenCubes(&cubes)
	if err != nil {
		t.Fatal(err)
	}
	batch := restoredAppendRows(t, orig, gt, 3000)
	if err := orig.Append(batch); err != nil {
		t.Fatal(err)
	}
	want, err := orig.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fixed := map[string]string{gt.DistinguishingAttr: orig.ds.Column(orig.ds.AttrIndex(gt.DistinguishingAttr)).Dict.Label(0)}

	for name, r := range map[string]*Session{"LoadSnapshot": fromSnap, "OpenCubes": fromCubes} {
		if err := r.Append(batch); err != nil {
			t.Fatalf("%s: append: %v", name, err)
		}
		got, err := r.Compare(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
		if err != nil {
			t.Fatalf("%s: compare: %v", name, err)
		}
		if got.res.Rule1.CondCount != want.res.Rule1.CondCount || got.res.Rule2.CondCount != want.res.Rule2.CondCount {
			t.Errorf("%s: cube compare counts %d/%d, want %d/%d", name,
				got.res.Rule1.CondCount, got.res.Rule2.CondCount, want.res.Rule1.CondCount, want.res.Rule2.CondCount)
		}
		scans := map[string]func() error{
			"CompareByScan": func() error {
				_, err := r.CompareByScan(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, CompareOptions{})
				return err
			},
			"CompareWhere": func() error {
				_, err := r.CompareWhere(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, fixed, CompareOptions{})
				return err
			},
			"TestSignificance": func() error {
				_, err := r.TestSignificance(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, gt.DistinguishingAttr, 10, 1)
				return err
			},
			"MineRules": func() error {
				_, err := r.MineRules(MineOptions{MaxConditions: 1})
				return err
			},
			"RankRules": func() error {
				_, err := r.RankRules("lift", MineOptions{MaxConditions: 1})
				return err
			},
			"QueryRules": func() error {
				_, err := r.QueryRules("len <= 1", MineOptions{MaxConditions: 1})
				return err
			},
			"Completeness": func() error {
				_, err := r.Completeness(1)
				return err
			},
			"Describe": func() error { return r.Describe(io.Discard) },
			// Re-counting or re-sampling would replace the restored
			// cubes with counts over the appended rows alone.
			"BuildCubes":         r.BuildCubes,
			"Discretize":         func() error { return r.Discretize(DiscretizeOptions{}) },
			"DownsampleMajority": func() error { return r.DownsampleMajority(0.5, 1) },
		}
		for op, run := range scans {
			err := run()
			if err == nil {
				t.Errorf("%s: %s answered from the %d rows appended since the restore", name, op, len(batch))
				continue
			}
			if !strings.Contains(err.Error(), "source rows") {
				t.Errorf("%s: %s error does not name the missing source rows: %v", name, op, err)
			}
		}
	}
}
