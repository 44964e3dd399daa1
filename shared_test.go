package opmap

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"opmap/internal/dataset"
	"opmap/internal/discretize"
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
			if wc.Dict != rc.Dict || unsafe.SliceData(wc.Codes) != unsafe.SliceData(rc.Codes) || len(wc.Codes) != len(rc.Codes) {
				t.Errorf("%s: categorical attribute %s is a second copy of raw's column", step, s.raw.Attr(i).Name)
			}
			continue
		}
		if !slices.Equal(wc.Codes, fresh.Column(i).Codes) {
			t.Errorf("%s: binned attribute %s differs from a fresh binning of raw", step, s.raw.Attr(i).Name)
		}
	}
}

// TestWorkingColumnsStayShared: a discretized session holds one copy
// of its categorical data. The working dataset shares raw's columns
// after Discretize, after Append batches that grow the columns past
// their capacity (and so move raw's backing arrays), after MergeFrom,
// and after a cut re-evaluation that keeps the cuts. At the end the
// session still answers exactly like a batch load of the same rows.
func TestWorkingColumnsStayShared(t *testing.T) {
	rows := ingestRows(2400)
	s := loadIngestSession(t, rows[:100], false)
	checkOneCopy(t, s, "Discretize")

	moved := 0
	for start := 100; start < 2200; start += 300 {
		before := unsafe.SliceData(s.raw.Column(0).Codes)
		if err := s.Append(rows[start : start+300]); err != nil {
			t.Fatal(err)
		}
		if unsafe.SliceData(s.raw.Column(0).Codes) != before {
			moved++
		}
		checkOneCopy(t, s, "Append")
	}
	if moved == 0 {
		t.Fatal("no append grew raw's columns past their capacity")
	}

	other := loadIngestSession(t, rows[2200:2300], false)
	if err := s.MergeFrom(other); err != nil {
		t.Fatal(err)
	}
	checkOneCopy(t, s, "MergeFrom")

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
}
