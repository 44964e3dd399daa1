//go:build !race

// The race detector drops sync.Pool items at random and instruments
// allocation, so allocation counts are only gated without it.

package snapshot_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/snapshot"
)

// columnsFixture writes a snapshot of rows rows whose three condition
// columns (one byte, four bytes and eight bytes per row) each pass
// 64 KiB, and returns its path and the bytes its rows block holds.
func columnsFixture(t *testing.T, rows int) (string, int64) {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "narrow", Kind: dataset.Categorical},
			{Name: "wide", Kind: dataset.Categorical},
			{Name: "temp", Kind: dataset.Continuous},
			{Name: "class", Kind: dataset.Categorical},
		},
		ClassIndex: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, 300)
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	b.WithDict(0, dataset.DictionaryOf("n0", "n1", "n2"))
	b.WithDict(1, dataset.DictionaryOf(labels...))
	b.WithDict(3, dataset.DictionaryOf("c0", "c1"))
	for r := 0; r < rows; r++ {
		if err := b.AddCodedRow([]int32{int32(r % 3), int32(r % 300), 0, int32(r % 2)}, []float64{0, 0, float64(r % 10), 0}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, raw, map[string][]float64{"temp": {4.5}})
	path := filepath.Join(t.TempDir(), "columns.omapsnap")
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	return path, int64(rows) * (1 + 4 + 8 + 1)
}

// TestReadFileAllocatesColumnsOnce: ReadFile knows the file's size, so
// each column is allocated once at its final length. Reading four
// times the rows costs the same number of allocations, and the bytes
// allocated stay within a quarter of the rows block above it; a buffer
// that grew by doubling would allocate about twice the block.
func TestReadFileAllocatesColumnsOnce(t *testing.T) {
	small, _ := columnsFixture(t, 40000)
	large, block := columnsFixture(t, 160000)
	read := func(path string) func() {
		return func() {
			if _, err := snapshot.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	// With the collector off, no collection empties fmt's printer pool
	// mid-read, so the counts are exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if a, b := testing.AllocsPerRun(5, read(small)), testing.AllocsPerRun(5, read(large)); a != b {
		t.Errorf("ReadFile makes %.0f allocations at 40000 rows and %.0f at 160000: a column grows as it reads", a, b)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	read(large)()
	runtime.ReadMemStats(&after)
	if got, limit := int64(after.TotalAlloc-before.TotalAlloc), block+block/4; got > limit {
		t.Errorf("ReadFile allocated %d bytes for a %d-byte rows block, want at most %d", got, block, limit)
	}
	// A stream of unknown size still reads, growing its columns.
	data, err := os.ReadFile(large)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Read(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
}
