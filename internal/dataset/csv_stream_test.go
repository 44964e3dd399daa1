package dataset_test

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/workload"
)

// callLogCSV is a genlog-style CSV: workload.CallLog written with
// WriteCSV, every column categorical text.
func callLogCSV(t testing.TB, cfg workload.CallLogConfig) []byte {
	t.Helper()
	ds, _, err := workload.CallLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// servingCSV is shaped like the serving benchmark's input: a call log
// with 8 phones and 75 noise attributes, then two class-dependent
// continuous columns formatted 'f', 1, then the class.
func servingCSV(t testing.TB, seed int64, rows int) []byte {
	t.Helper()
	ds, _, err := workload.CallLog(workload.CallLogConfig{
		Seed: seed, Records: rows, NumPhones: 8, NoiseAttrs: 75,
	})
	if err != nil {
		t.Fatal(err)
	}
	classIdx := ds.ClassIndex()
	var buf bytes.Buffer
	for i := 0; i < ds.NumAttrs(); i++ {
		if i != classIdx {
			buf.WriteString(ds.Attr(i).Name)
			buf.WriteByte(',')
		}
	}
	buf.WriteString("Signal-dBm,Call-Duration-s,Disposition\n")
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rows; r++ {
		for i := 0; i < ds.NumAttrs(); i++ {
			if i != classIdx {
				buf.WriteString(ds.Label(r, i))
				buf.WriteByte(',')
			}
		}
		class := ds.Label(r, classIdx)
		shift := 0.0
		if class == workload.ClassDropped {
			shift = -16
		}
		dbm := math.Max(-130, math.Min(-40, -84+shift+8*rng.NormFloat64()))
		secs := math.Min(3600, 180*rng.ExpFloat64())
		buf.WriteString(strconv.FormatFloat(dbm, 'f', 1, 64))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatFloat(secs, 'f', 1, 64))
		buf.WriteByte(',')
		buf.WriteString(class)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestReadCSVMatchesReference checks the streaming loader against the
// buffering one it replaced on generated call logs, gappy and not, and
// on the serving benchmark's CSV shape at several sniffing thresholds.
func TestReadCSVMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		csv  []byte
		opts dataset.CSVOptions
	}{
		{"calllog", callLogCSV(t, workload.CallLogConfig{Seed: 7, Records: 3000, NoiseAttrs: 12}), dataset.CSVOptions{}},
		{"calllog-missing", callLogCSV(t, workload.CallLogConfig{Seed: 8, Records: 3000, NoiseAttrs: 12, MissingRate: 0.1}), dataset.CSVOptions{}},
		{"serving", servingCSV(t, 9, 4000), dataset.CSVOptions{ClassAttr: "Disposition"}},
		{"serving-maxcard-0", servingCSV(t, 9, 4000), dataset.CSVOptions{MaxSniffCardinality: 0}},
		{"serving-maxcard-2", servingCSV(t, 9, 4000), dataset.CSVOptions{MaxSniffCardinality: 2}},
		{"serving-maxcard-5000", servingCSV(t, 9, 4000), dataset.CSVOptions{MaxSniffCardinality: 5000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := dataset.ReadCSV(bytes.NewReader(tc.csv), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dataset.ReadCSVReference(bytes.NewReader(tc.csv), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := dataset.DiffDatasets(got, want); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// BenchmarkReadCSV loads a 100k-row CSV of the serving benchmark's
// shape (82 condition attributes, two of them continuous) from memory.
func BenchmarkReadCSV(b *testing.B) {
	const rows = 100000
	data := servingCSV(b, 1, rows)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := dataset.ReadCSV(bytes.NewReader(data), dataset.CSVOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ds.NumRows() != rows {
			b.Fatalf("loaded %d rows, want %d", ds.NumRows(), rows)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
