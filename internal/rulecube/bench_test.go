package rulecube_test

import (
	"context"
	"fmt"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/rulecube"
	"opmap/internal/testutil"
	"opmap/internal/workload"
)

// benchPairCube builds a 3-D cube over two moderately wide attributes
// of the synthetic call log, the shape Slice/Rollup/Dice iterate over
// in the compare and GI hot paths.
func benchPairCube(b *testing.B) *rulecube.Cube {
	b.Helper()
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 1, Records: 30000, NumPhones: 24, NoiseAttrs: 2})
	if err != nil {
		b.Fatal(err)
	}
	phone := ds.AttrIndex(gt.PhoneAttr)
	tower := ds.AttrIndex(gt.DistinguishingAttr)
	cube, err := rulecube.Build(ds, []int{phone, tower})
	if err != nil {
		b.Fatal(err)
	}
	return cube
}

func BenchmarkCubeSlice(b *testing.B) {
	cube := benchPairCube(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.Slice(0, int32(i%cube.Dim(0))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubeRollup(b *testing.B) {
	cube := benchPairCube(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.Rollup(i % 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubeDice(b *testing.B) {
	cube := benchPairCube(b)
	values := []int32{0, 1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.Dice(0, values); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreIngestRows times one 100-row batch folded into every
// cube of an 80-attribute call-log store (80 1-D + 3,160 pair cubes),
// the apply each WAL ingest batch pays. "dense" rows set every
// attribute; "sparse" rows keep only the five planted attributes and
// leave the rest missing, so most cubes see no countable row.
func BenchmarkStoreIngestRows(b *testing.B) {
	planted := map[string]bool{
		"Phone-Model": true, "Time-of-Call": true, "Signal-Band": true,
		"Terrain": true, "Phone-Hardware-Version": true,
	}
	const batchRows = 100
	for _, mode := range []string{"dense", "sparse"} {
		ds, _, err := workload.CallLog(workload.CallLogConfig{Seed: 1, Records: 20000, NumPhones: 8, NoiseAttrs: 75})
		if err != nil {
			b.Fatal(err)
		}
		cubes := storeCubes(b, ds)
		if n := len(cubes); n != 3240 {
			b.Fatalf("store has %d cubes, want 3240", n)
		}
		// The batch repeats the first rows, appended after the store
		// was counted.
		rows := make([][]string, batchRows)
		for r := range rows {
			rows[r] = ds.Row(r)
			for a := range rows[r] {
				if mode == "sparse" && a != ds.ClassIndex() && !planted[ds.Attr(a).Name] {
					rows[r][a] = dataset.MissingLabel
				}
			}
		}
		from := testutil.AppendBatch(b, ds, rows)
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rulecube.IngestCubes(cubes, ds, from)
			}
		})
	}
}

// BenchmarkBuildManyStore times one store build: BuildMany over
// StoreRequests, every 1-D and pair cube, as an eager session counts
// them at set-up. The schema is the benchmark workload's size: the call
// log with 8 phones and 77 six-valued noise attributes, 82 condition
// attributes and 3,403 cubes (perfbench's two discretized columns are
// two more noise attributes here). Case rows-20000 is cheap to run;
// rows-100000 is perfbench's row count.
func BenchmarkBuildManyStore(b *testing.B) {
	for _, rows := range []int{20000, 100000} {
		ds, _, err := workload.CallLog(workload.CallLogConfig{Seed: 1, Records: rows, NumPhones: 8, NoiseAttrs: 77})
		if err != nil {
			b.Fatal(err)
		}
		attrs, err := rulecube.NormalizeAttrs(ds, nil)
		if err != nil {
			b.Fatal(err)
		}
		reqs := rulecube.StoreRequests(attrs)
		if len(reqs) != 3403 {
			b.Fatalf("store has %d requests, want 3403", len(reqs))
		}
		b.Run(fmt.Sprintf("rows-%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rulecube.BuildMany(context.Background(), ds, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
