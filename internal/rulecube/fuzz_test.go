package rulecube_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/rulecube"
	"opmap/internal/testutil"
)

// FuzzIngestRows decodes arbitrary bytes into a batch of text rows —
// labels known, new or missing, classes known, new or missing — appends
// it the way a session does (testutil.AppendBatch: a dataset.Builder
// parse, then UnionDicts and AppendRemapped) and folds the appended
// range into every cube of a store plus a 3-D cube. Every cube must
// equal the brute-force recount over the base rows plus the batch, and
// a cube counted afresh over the grown dataset. A0's dictionary starts
// at dataset.MaxNarrowLabels labels, the most a one-byte column holds;
// with grow > 0 the batch's A0 labels are new ones, so a batch that
// sets A0 widens its column.
func FuzzIngestRows(f *testing.F) {
	// Each row is ingestAttrs+1 label bytes then one class byte: byte%8
	// picks the label (0, 1: missing; else v0..v5, of which v3..v5 are
	// new; A0's is one of grow new labels once grow > 0), byte%6 the
	// class (0, 1: missing; else c0..c3, of which c2, c3 are new).
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
		width := ds.NumAttrs()
		var rows [][]string
		for len(data) >= width+1 && len(rows) < 16 {
			row := make([]string, width)
			for a := range row {
				switch b := data[a] % 8; {
				case a == ds.ClassIndex():
					row[a] = dataset.MissingLabel
					if c := data[width] % 6; c >= 2 {
						row[a] = fmt.Sprintf("c%d", c-2)
					}
				case b < 2:
					row[a] = dataset.MissingLabel
				case a == 0 && grow > 0:
					row[a] = fmt.Sprintf("new%d", int(b)%int(grow))
				default:
					row[a] = fmt.Sprintf("v%d", b-2)
				}
			}
			rows = append(rows, row)
			data = data[width+1:]
		}
		from := testutil.AppendBatch(t, ds, rows)
		cubes := append(st, nd)
		rulecube.IngestCubes(cubes, ds, from)
		fresh := append(storeCubes(t, ds), nil)
		if fresh[len(fresh)-1], err = rulecube.Build(ds, []int{0, 2, 4}); err != nil {
			t.Fatal(err)
		}
		for i, c := range cubes {
			rulecube.CheckBruteForce(t, ds, c.AttrIndices(), c, fmt.Sprint("cube ", c.AttrIndices()))
			if f := fresh[i]; !reflect.DeepEqual(c.Counts(), f.Counts()) || c.Total() != f.Total() {
				t.Fatalf("cube %v: ingested counts differ from a fresh count", c.AttrIndices())
			}
		}
		if wide := ds.Column(0).Codes.IsWide(); wide != (a0.Len() > dataset.MaxNarrowLabels) {
			t.Fatalf("A0 has %d labels after %d rows, wide %v", a0.Len(), len(rows), wide)
		}
	})
}
