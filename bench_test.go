package opmap

// Benchmarks, one per table/figure of the paper's evaluation plus the
// ablations called out in DESIGN.md §5. `go test -bench=. -benchmem`
// runs them at a laptop-friendly scale; cmd/figures runs the same
// experiments at configurable (up to paper) scale and prints the series.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"opmap/internal/car"
	"opmap/internal/compare"
	"opmap/internal/dataset"
	"opmap/internal/discretize"
	"opmap/internal/engine"
	"opmap/internal/rulecube"
	"opmap/internal/snapshot"
	"opmap/internal/visual"
	"opmap/internal/workload"
)

// benchRecords is the record count behind the benchmark datasets. The
// paper uses 2M records; benches use a smaller set because cube-backed
// comparison time is independent of it anyway (that independence is
// itself benchmarked in BenchmarkAblationCubeVsScan).
const benchRecords = 50000

var (
	benchMu    sync.Mutex
	scaleCache = map[int]*engine.LazySource{}
)

// pinnedEngine counts every 1-D and pair cube of ds and pins them, the
// engine an eager session serves.
func pinnedEngine(ds *dataset.Dataset) (*engine.LazySource, error) {
	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		return nil, err
	}
	return src, src.PinAll(context.Background())
}

// scaleSource returns (building once) the pinned engine for a scale
// dataset with the given number of attributes.
func scaleSource(b *testing.B, attrs int) *engine.LazySource {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := scaleCache[attrs]; ok {
		return s
	}
	ds, err := workload.Scale(workload.ScaleConfig{Seed: 1, Records: benchRecords, Attrs: attrs})
	if err != nil {
		b.Fatal(err)
	}
	src, err := pinnedEngine(ds)
	if err != nil {
		b.Fatal(err)
	}
	scaleCache[attrs] = src
	return src
}

// BenchmarkFig9Comparison measures the comparison computation time as
// the number of attributes grows (paper Fig. 9: linear, ≤0.8 s at 160
// attributes on 2008 hardware; interactive).
func BenchmarkFig9Comparison(b *testing.B) {
	for _, attrs := range []int{40, 80, 120, 160} {
		b.Run(fmt.Sprintf("attrs-%d", attrs), func(b *testing.B) {
			cmp := compare.NewSource(scaleSource(b, attrs))
			in := compare.Input{Attr: 0, V1: 0, V2: 1, Class: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cmp.Compare(in, compare.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10CubeGenAttrs measures rule-cube store generation time as
// the number of attributes grows (paper Fig. 10: superlinear — the store
// holds all attribute pairs).
func BenchmarkFig10CubeGenAttrs(b *testing.B) {
	for _, attrs := range []int{40, 80, 120, 160} {
		b.Run(fmt.Sprintf("attrs-%d", attrs), func(b *testing.B) {
			ds, err := workload.Scale(workload.ScaleConfig{Seed: 1, Records: benchRecords / 5, Attrs: attrs})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pinnedEngine(ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11CubeGenRecords measures cube generation time as records
// grow by duplication (paper Fig. 11: linear; the paper duplicated a 2M
// set to 2/4/6/8M records).
func BenchmarkFig11CubeGenRecords(b *testing.B) {
	base, err := workload.Scale(workload.ScaleConfig{Seed: 1, Records: benchRecords / 2, Attrs: 40})
	if err != nil {
		b.Fatal(err)
	}
	for factor := 1; factor <= 4; factor++ {
		b.Run(fmt.Sprintf("records-%d", base.NumRows()*factor), func(b *testing.B) {
			ds := base.Duplicate(factor)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pinnedEngine(ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Boundaries exercises the measure's boundary computations
// (Fig. 2/Fig. 4): the pure Eq. 1–3 arithmetic on explicit tables.
func BenchmarkFig4Boundaries(b *testing.B) {
	n1 := []int64{10000, 10000, 10000}
	c1 := []int64{250, 250, 100}
	n2 := []int64{14400, 14400, 1200}
	c2 := []int64{0, 0, 1200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := compare.CompareValues("t", nil, n1, c1, n2, c2, compare.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// caseStudyBench holds the Section V.B fixture for the case-study and
// ablation benchmarks.
var caseStudyOnce struct {
	sync.Once
	src *engine.LazySource
	ds  *dataset.Dataset
	in  compare.Input
	err error
}

func caseStudyFixture(b *testing.B) (*engine.LazySource, *dataset.Dataset, compare.Input) {
	b.Helper()
	caseStudyOnce.Do(func() {
		ds, gt, err := workload.CallLog(workload.CaseStudyConfig(7, benchRecords))
		if err != nil {
			caseStudyOnce.err = err
			return
		}
		src, err := pinnedEngine(ds)
		if err != nil {
			caseStudyOnce.err = err
			return
		}
		attr := ds.AttrIndex(gt.PhoneAttr)
		v1, _ := ds.Column(attr).Dict.Lookup(gt.GoodPhone)
		v2, _ := ds.Column(attr).Dict.Lookup(gt.BadPhone)
		cls, _ := ds.ClassDict().Lookup(gt.DropClass)
		caseStudyOnce.src = src
		caseStudyOnce.ds = ds
		caseStudyOnce.in = compare.Input{Attr: attr, V1: v1, V2: v2, Class: cls}
	})
	if caseStudyOnce.err != nil {
		b.Fatal(caseStudyOnce.err)
	}
	return caseStudyOnce.src, caseStudyOnce.ds, caseStudyOnce.in
}

// BenchmarkCaseStudyComparison times the Section V.B comparison on the
// 41-attribute call log.
func BenchmarkCaseStudyComparison(b *testing.B) {
	src, _, in := caseStudyFixture(b)
	cmp := compare.NewSource(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmp.Compare(in, compare.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCI isolates the cost of the confidence-interval
// adjustment (DESIGN.md §5): Eq. 1 with and without interval revision.
func BenchmarkAblationCI(b *testing.B) {
	src, _, in := caseStudyFixture(b)
	cmp := compare.NewSource(src)
	b.Run("with-ci", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cmp.Compare(in, compare.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-ci", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cmp.Compare(in, compare.Options{DisableCI: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wilson", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cmp.Compare(in, compare.Options{Method: compare.Wilson}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCubeVsScan contrasts cube-backed comparison with raw
// re-scanning (DESIGN.md §5): the scan path's cost grows with records,
// the cube path's does not — the paper's V.C claim.
func BenchmarkAblationCubeVsScan(b *testing.B) {
	src, ds, in := caseStudyFixture(b)
	cmp := compare.NewSource(src)
	b.Run("cube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cmp.Compare(in, compare.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compare.Scan(context.Background(), ds, nil, in, compare.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Scan over 2× the records ≈ 2× the time; cube time unchanged.
	big := ds.Duplicate(2)
	b.Run("scan-2x-records", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compare.Scan(context.Background(), big, nil, in, compare.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRestrictedMining times on-demand restricted mining of longer
// rules versus reading the materialized two-condition cubes (the
// deployed system's design choice, Section III.B).
func BenchmarkRestrictedMining(b *testing.B) {
	_, ds, in := caseStudyFixture(b)
	fixed := []car.Condition{{Attr: in.Attr, Value: in.V2}}
	b.Run("restricted-cube", func(b *testing.B) {
		// Count the cube over the fixed attribute plus the ranked ones,
		// then slice the fixed attribute to its value.
		attrs := []int{in.Attr, ds.AttrIndex("Time-of-Call"), ds.AttrIndex("Terrain")}
		for i := 0; i < b.N; i++ {
			cubes, err := rulecube.BuildMany(context.Background(), ds, [][]int{attrs})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cubes[0].Slice(0, in.V2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restricted-mine-3cond", func(b *testing.B) {
		opts := car.Options{MaxConditions: 2, Fixed: fixed, MinSupport: 0.001,
			Attrs: []int{ds.AttrIndex("Time-of-Call"), ds.AttrIndex("Terrain")}}
		for i := 0; i < b.N; i++ {
			if _, err := car.Mine(ds, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCARMining times exhaustive two-condition CAR mining (the
// offline stage feeding the cubes).
func BenchmarkCARMining(b *testing.B) {
	_, ds, _ := caseStudyFixture(b)
	small, err := dataset.StratifiedSample(ds, 0.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := car.Mine(small, car.Options{MaxConditions: 2, MinSupport: 0.005}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscretizeMDLP times supervised discretization of the
// manufacturing log's continuous attributes.
func BenchmarkDiscretizeMDLP(b *testing.B) {
	ds, _, err := workload.Manufacturing(workload.ManufacturingConfig{Seed: 1, Records: 20000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := discretize.Apply(ds, discretize.MDLP{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverallRender times the Fig. 5 overall view rendering.
func BenchmarkOverallRender(b *testing.B) {
	src, _, _ := caseStudyFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countingWriter
		if err := visual.Overall(context.Background(), &sink, src, visual.OverallOptions{Scale: true}); err != nil {
			b.Fatal(err)
		}
	}
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkScreenPairs times the pair-screening extension over the
// case-study phone attribute.
func BenchmarkScreenPairs(b *testing.B) {
	src, ds, in := caseStudyFixture(b)
	cmp := compare.NewSource(src)
	attr := ds.AttrIndex("Phone-Model")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmp.ScreenPairs(attr, in.Class, compare.ScreenOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneVsRest times the one-vs-rest comparison.
func BenchmarkOneVsRest(b *testing.B) {
	src, ds, in := caseStudyFixture(b)
	cmp := compare.NewSource(src)
	timeAttr := ds.AttrIndex("Time-of-Call")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmp.OneVsRest(compare.OneVsRestInput{Attr: timeAttr, Value: 0, Class: in.Class}, compare.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePersistence times the offline artifact's write and
// read: an eager snapshot of the pinned cubes and the rows they count.
func BenchmarkStorePersistence(b *testing.B) {
	src, ds, _ := caseStudyFixture(b)
	snap := &snapshot.Snapshot{Mode: snapshot.ModeEager, Raw: ds, Attrs: src.Attrs()}
	snap.SetCubes(src.ResidentCubes())
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snap); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w countingWriter
			if err := snapshot.Write(&w, snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.Read(bytes.NewReader(blob)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSessionAppend times one 100-row Append into an eager
// session over a 20,000-row call log of 80 categorical attributes (5
// planted, 75 noise) and two class-dependent continuous columns,
// discretized by entropy-MDLP: the shape and batch size of perfbench's
// ingest-interleaved workload. Each batch parses, bins, grows both
// datasets and folds into the 3,400 pinned cubes.
func BenchmarkSessionAppend(b *testing.B) {
	const baseRows, batchRows, poolBatches = 20000, 100, 20
	ds, _, err := workload.CallLog(workload.CallLogConfig{Seed: 1, Records: baseRows + batchRows*poolBatches, NumPhones: 8, NoiseAttrs: 75})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	classIdx := ds.ClassIndex()
	var csv bytes.Buffer
	for i := 0; i < ds.NumAttrs(); i++ {
		if i != classIdx {
			fmt.Fprintf(&csv, "%s,", ds.Attr(i).Name)
		}
	}
	csv.WriteString("Signal-dBm,Call-Duration-s,Disposition\n")
	rows := make([][]string, ds.NumRows())
	for r := range rows {
		for i := 0; i < ds.NumAttrs(); i++ {
			if i != classIdx {
				rows[r] = append(rows[r], ds.Label(r, i))
			}
		}
		class := ds.Label(r, classIdx)
		dbm, secs := -84+8*rng.NormFloat64(), 180*rng.ExpFloat64()
		if class != workload.ClassOK {
			dbm, secs = -98+6*rng.NormFloat64(), 40*rng.ExpFloat64()
		}
		rows[r] = append(rows[r], strconv.FormatFloat(dbm, 'f', 1, 64), strconv.FormatFloat(secs, 'f', 1, 64), class)
		if r < baseRows {
			csv.WriteString(strings.Join(rows[r], ","))
			csv.WriteByte('\n')
		}
	}
	s, err := LoadCSV(&csv, LoadOptions{Continuous: []string{"Signal-dBm", "Call-Duration-s"}})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Discretize(DiscretizeOptions{Method: EntropyMDLP}); err != nil {
		b.Fatal(err)
	}
	if err := s.BuildCubes(); err != nil {
		b.Fatal(err)
	}
	pool := rows[baseRows:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % poolBatches
		if err := s.Append(pool[k*batchRows : (k+1)*batchRows]); err != nil {
			b.Fatal(err)
		}
	}
}
