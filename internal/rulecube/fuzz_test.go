package rulecube_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/rulecube"
)

// FuzzIngestRows decodes arbitrary bytes into an ingest batch — codes
// and classes that are negative, missing, in range or beyond the
// dictionaries, and rows cut short — and folds it into every cube of a
// store plus a 3-D cube. The call must either fail with every cube
// unchanged, or succeed with every cube equal to the brute-force
// recount over the base rows plus the batch. A0's dictionary starts at
// dataset.MaxNarrowLabels labels, the most a one-byte column holds, and
// the batch registers grow new ones first, so a batch that uses them
// widens A0's column; cubes counted afresh over the appended dataset
// must then match the recount too.
func FuzzIngestRows(f *testing.F) {
	// Each row is ingestAttrs+1 codes then one class byte: byte%8-2 is
	// the code (-2..5; A0's is 251..258 once grow > 0), byte%6-2 the
	// class (-2..3), and a class byte of 0xf0 or more also drops the
	// row's last code.
	f.Add([]byte{2, 3, 4, 2, 3, 9, 3, 4, 2, 2, 3, 4, 0, 2}, uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint8(0))
	f.Add([]byte{2, 2, 2, 2, 2, 2, 0xf3}, uint8(0))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{2, 3, 4, 2, 3, 9, 4, 4, 2, 2, 3, 4, 7, 2}, uint8(1))
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, grow uint8) {
		ds := ingestDataset(t, rand.New(rand.NewSource(1)), 40)
		a0 := ds.Column(0).Dict
		for a0.Len() < dataset.MaxNarrowLabels {
			a0.Code(fmt.Sprintf("pad%d", a0.Len()))
		}
		st := storeCubes(t, ds)
		nd, err := rulecube.Build(ds, []int{0, 2, 4})
		if err != nil {
			t.Fatal(err)
		}
		cubes := append(st, nd)
		for i := 0; i < int(grow); i++ {
			a0.Code(fmt.Sprintf("new%d", i))
		}
		// IngestCubes grows every layout to its dictionaries even when
		// it rejects the batch; that adds only zero cells, so take the
		// before-state at the grown layout.
		for _, c := range cubes {
			c.SyncDims()
		}
		width := ds.NumAttrs()
		var rows [][]int32
		var classes []int32
		for len(data) >= width+1 && len(rows) < 16 {
			row := make([]int32, width)
			for a := range row {
				row[a] = int32(data[a]%8) - 2
			}
			if grow > 0 {
				row[0] += dataset.MaxNarrowLabels - 2
			}
			classByte := data[width]
			if classByte >= 0xf0 {
				row = row[:width-1]
			}
			rows = append(rows, row)
			classes = append(classes, int32(classByte%6)-2)
			data = data[width+1:]
		}
		before := make([]cubeState, len(cubes))
		for i, c := range cubes {
			before[i] = stateOf(c)
		}
		if err := rulecube.IngestCubes(cubes, width, rows, classes); err != nil {
			for i, c := range cubes {
				if !reflect.DeepEqual(stateOf(c), before[i]) {
					t.Fatalf("rejected batch (%v) changed cube %v", err, c.AttrIndices())
				}
			}
			return
		}
		for r, row := range rows {
			codes := append([]int32(nil), row...)
			codes[ds.ClassIndex()] = classes[r]
			if err := ds.AppendCodedRow(codes, nil); err != nil {
				t.Fatalf("accepted row %d %v does not fit the dataset: %v", r, row, err)
			}
		}
		for _, c := range cubes {
			rulecube.CheckBruteForce(t, ds, c.AttrIndices(), c, fmt.Sprint("cube ", c.AttrIndices()))
		}
		if wide := ds.Column(0).Codes.IsWide(); wide != (len(rows) > 0 && a0.Len() > dataset.MaxNarrowLabels) {
			t.Fatalf("A0 has %d labels after %d rows, wide %v", a0.Len(), len(rows), wide)
		}
		for _, c := range append(storeCubes(t, ds), nd) {
			rulecube.CheckBruteForce(t, ds, c.AttrIndices(), c, fmt.Sprint("fresh cube ", c.AttrIndices()))
		}
	})
}
