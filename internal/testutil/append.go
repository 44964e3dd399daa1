package testutil

import (
	"testing"

	"opmap/internal/dataset"
)

// AppendBatch appends textual rows to ds the way a session appends a
// batch: parsed by a dataset.Builder over ds's schema, then folded in
// through UnionDicts and AppendRemapped. It returns the index of the
// first appended row, the from argument of an ingest fold.
func AppendBatch(t testing.TB, ds *dataset.Dataset, rows [][]string) int {
	t.Helper()
	b, err := dataset.NewBuilder(ds.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := b.AddRow(row); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	from := ds.NumRows()
	rm, err := ds.UnionDicts(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendRemapped(batch, rm); err != nil {
		t.Fatal(err)
	}
	return from
}
