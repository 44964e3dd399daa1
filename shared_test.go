package opmap

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/discretize"
	"opmap/internal/testutil"
)

// checkOneCopy fails unless every categorical working column of s is
// raw's own column — the same codes backing array and length and the
// same *Dictionary — and every binned column equals a fresh binning of
// raw under the session's cuts.
func checkOneCopy(t *testing.T, s *Session, step string) {
	t.Helper()
	if s.ds == s.raw {
		t.Fatalf("%s: working dataset is raw itself; the schema needs continuous attributes", step)
	}
	fresh, err := discretize.Bin(s.raw, s.cuts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.raw.NumAttrs(); i++ {
		rc, wc := s.raw.Column(i), s.ds.Column(i)
		if rc.Kind == dataset.Categorical {
			if wc.Dict != rc.Dict || testutil.CodesData(&wc.Codes) != testutil.CodesData(&rc.Codes) || wc.Codes.Len() != rc.Codes.Len() {
				t.Errorf("%s: categorical attribute %s is a second copy of raw's column", step, s.raw.Attr(i).Name)
			}
			continue
		}
		if !slices.Equal(wc.Codes.Int32s(), fresh.Column(i).Codes.Int32s()) {
			t.Errorf("%s: binned attribute %s differs from a fresh binning of raw", step, s.raw.Attr(i).Name)
		}
	}
}

// plantedRows returns n seeded rows over ingestRows' schema in which
// fail is likelier for south's m2 calls above 50 degrees, so a
// drill-down from north vs south finds Model and Temp conditions.
func plantedRows(n int) [][]string {
	rng := rand.New(rand.NewSource(21))
	regions := []string{"north", "south", "east", "west"}
	models := []string{"m1", "m2", "m3"}
	rows := make([][]string, n)
	for i := range rows {
		region, model, temp := regions[rng.Intn(len(regions))], models[rng.Intn(len(models))], rng.Intn(100)
		fail := 0.2
		if region == "south" && model == "m2" && temp > 50 {
			fail = 0.8
		}
		cls := "ok"
		if rng.Float64() < fail {
			cls = "fail"
		} else if rng.Intn(3) == 0 {
			cls = "slow"
		}
		tv := fmt.Sprintf("%d.5", temp)
		if i%23 == 7 {
			tv = "?"
		}
		rows[i] = []string{region, model, tv, fmt.Sprint(rng.Intn(80)), cls}
	}
	return rows
}

// TestWorkingColumnsStayShared: a discretized session holds one copy
// of its categorical data. The working dataset shares raw's columns
// after Discretize, after Append batches that grow the columns past
// their capacity (and so move raw's backing arrays), after the Append
// whose new labels take Region's dictionary past 255 and so widen its
// column from one byte per row to four, after MergeFrom, and after a
// cut re-evaluation that keeps the cuts. At the end the session still
// answers compare, sweep, impressions and drill-down exactly like a
// batch load of the same rows.
func TestWorkingColumnsStayShared(t *testing.T) {
	rows := plantedRows(2400)
	const region = 0 // the Region attribute
	for i := 1900; i < 2200; i++ {
		rows[i][region] = fmt.Sprintf("w%d", i)
	}
	s := loadIngestSession(t, rows[:100], false)
	checkOneCopy(t, s, "Discretize")

	moved := 0
	for start := 100; start < 2200; start += 300 {
		before := testutil.CodesData(&s.raw.Column(0).Codes)
		if err := s.Append(rows[start : start+300]); err != nil {
			t.Fatal(err)
		}
		if testutil.CodesData(&s.raw.Column(0).Codes) != before {
			moved++
		}
		step := "Append"
		if widened := s.raw.Column(region).Codes.IsWide(); widened != (start+300 > 1900) {
			t.Fatalf("Region has %d labels after rows [%d, %d): wide %v", s.raw.Cardinality(region), start, start+300, widened)
		} else if widened {
			step = "widening Append"
		}
		checkOneCopy(t, s, step)
	}
	if moved == 0 {
		t.Fatal("no append grew raw's columns past their capacity")
	}

	other := loadIngestSession(t, rows[2200:2300], false)
	if err := s.MergeFrom(other); err != nil {
		t.Fatal(err)
	}
	checkOneCopy(t, s, "MergeFrom")
	if !s.raw.Column(region).Codes.IsWide() || s.raw.Column(region+1).Codes.IsWide() {
		t.Error("MergeFrom changed a column's width: Region must stay wide and Model narrow")
	}

	working := s.ds
	s.SetCutReevaluation(100)
	if err := s.Append(rows[2300:2400]); err != nil {
		t.Fatal(err)
	}
	if st := s.IngestStats(); st.RowsSinceCutEval != 0 {
		t.Fatalf("cuts were not re-evaluated: %d rows since", st.RowsSinceCutEval)
	}
	if s.ds != working {
		t.Fatal("re-evaluation rebuilt the working dataset although the manual cuts hold")
	}
	checkOneCopy(t, s, "cut re-evaluation")

	oracle := loadIngestSession(t, rows, false)
	oc, os, oi := queryTriple(t, oracle)
	sc, ss, si := queryTriple(t, s)
	if !reflect.DeepEqual(oc, sc) || !reflect.DeepEqual(os, ss) || !reflect.DeepEqual(oi, si) {
		t.Error("answers diverge from a batch load of the same rows")
	}
	od, err := oracle.DrillDown("Region", "north", "south", "fail", DrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := s.DrillDown("Region", "north", "south", "fail", DrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sd.Findings) == 0 || !reflect.DeepEqual(od, sd) {
		t.Errorf("drill-down diverges from a batch load of the same rows (%d findings, want %d)", len(sd.Findings), len(od.Findings))
	}
}
