package rulecube

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
)

// randomDatasetMissingClass is randomDataset with missing values in the
// class column too, so the batch oracle covers the rows the scan must
// skip entirely.
func randomDatasetMissingClass(t *testing.T, seed int64, rows, attrs, card, classes int, missingRate float64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := dataset.Schema{ClassIndex: attrs}
	for i := 0; i < attrs; i++ {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical})
	}
	schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: "class", Kind: dataset.Categorical})
	b, err := dataset.NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < attrs; i++ {
		d := dataset.NewDictionary()
		for v := 0; v < card; v++ {
			d.Code(fmt.Sprintf("v%d", v))
		}
		b.WithDict(i, d)
	}
	cd := dataset.NewDictionary()
	for c := 0; c < classes; c++ {
		cd.Code(fmt.Sprintf("c%d", c))
	}
	b.WithDict(attrs, cd)
	codes := make([]int32, attrs+1)
	for r := 0; r < rows; r++ {
		for i := 0; i <= attrs; i++ {
			if rng.Float64() < missingRate {
				codes[i] = dataset.Missing
			} else if i == attrs {
				codes[i] = int32(rng.Intn(classes))
			} else {
				codes[i] = int32(rng.Intn(card))
			}
		}
		if err := b.AddCodedRow(codes, nil); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestBuildManyOracle checks every request shape against the
// brute-force recount: pair cubes in both dimension orders, 1-D cubes
// derived from a pair plan's scratch, 1-D cubes with a dedicated plan,
// duplicate requests, and pairs counted in dual tables.
func TestBuildManyOracle(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		ds := randomDatasetMissingClass(t, trial, 2500, 5, 4, 3, 0.08)
		reqs := [][]int{
			{0, 1},
			{1, 0}, // reversed dimension order is a distinct cube
			{2, 3},
			{0},    // derived from pair (0,1)
			{3},    // derived from pair (2,3), partner position
			{4},    // no covering pair: dedicated 1-D plan
			{0, 1}, // duplicate shares the cube
		}
		got, err := BuildMany(context.Background(), ds, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("got %d cubes, want %d", len(got), len(reqs))
		}
		for i, attrs := range reqs {
			checkBruteForce(t, ds, attrs, got[i], fmt.Sprintf("trial %d req %d %v", trial, i, attrs))
		}
		if got[0] != got[6] {
			t.Error("duplicate requests should share one cube")
		}
	}
	// Request sets whose narrow pairs pair into dual tables: a table's
	// pairs leave the pair loop and the others (tallied: unpaired
	// attributes' pairs and the first dual's inner pair) stay, every
	// dual's codes fit a byte, a table exactly at dualCells forms and one
	// a cell over does not, and a sweep's star forms none. Every column,
	// the class included, is missing at 10% of the rows.
	ds, ds1 := dualDataset(t, 3, 3*scanBlockRows+77, 3), dualDataset(t, 3, 3*scanBlockRows+77, 1)
	for _, tc := range []struct {
		name            string
		ds              *dataset.Dataset
		reqs            [][]int
		tables, tallied int
	}{
		{"six attributes", ds, dualReqs(), 3, 2},
		{"odd attribute count", ds, allPairs(0, 1, 2, 3, 4), 1, 5},
		{"dual product over 256", ds, allPairs(14, 15, 16, 17, 18), 1, 5},
		{"pairs in both orders", ds, append(allPairs(0, 1, 2, 3), [][]int{{1, 0}, {3, 2}, {2, 0}, {3, 1}, {3, 0}, {2, 1}}...), 1, 2},
		{"star", ds, [][]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0}, {3}}, 0, 5},
		{"at the bound", ds1, allPairs(6, 7, 8, 9), 1, 1},
		{"one cell over", ds1, allPairs(10, 11, 12, 13), 0, 6},
	} {
		plan, err := planBatch(tc.ds, tc.ds.NumClasses(), tc.reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.tables) != tc.tables || len(plan.pairsByWidth[0]) != tc.tallied {
			t.Errorf("%s: %d tables and %d narrow pairs tallied, want %d and %d", tc.name, len(plan.tables), len(plan.pairsByWidth[0]), tc.tables, tc.tallied)
		}
		for _, d := range plan.duals {
			if d.size() > 256 {
				t.Errorf("%s: dual over %v has %d codes", tc.name, d.attrs, d.size())
			}
		}
		folded := make(map[int]int)
		for _, tb := range plan.tables {
			if cells := plan.duals[tb.g].size() * plan.duals[tb.h].size() * tc.ds.NumClasses(); cells > dualCells {
				t.Errorf("%s: a table of %d cells", tc.name, cells)
			}
			for _, f := range tb.folds {
				folded[f.pair]++
			}
		}
		for _, pi := range plan.pairsByWidth[0] {
			if folded[pi] > 0 {
				t.Errorf("%s: pair %d is both tallied and folded", tc.name, pi)
			}
		}
		for pi, n := range folded {
			if n != 1 {
				t.Errorf("%s: pair %d folded %d times", tc.name, pi, n)
			}
		}
		if n := len(folded) + len(plan.pairsByWidth[0]) + len(plan.pairsByWidth[1]) + len(plan.pairsByWidth[2]) + len(plan.pairsByWidth[3]); n != len(plan.pairs) {
			t.Errorf("%s: %d pair plans counted, want %d", tc.name, n, len(plan.pairs))
		}
		got, err := BuildMany(context.Background(), tc.ds, tc.reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, attrs := range tc.reqs {
			checkBruteForce(t, tc.ds, attrs, got[i], fmt.Sprintf("%s: req %d %v", tc.name, i, attrs))
		}
	}
}

// dualDataset draws a dataset for the dual-table tests with nc classes:
// a0..a5 have 3, 4, 2, 5, 3 and 0 values; a6..a9 have 7, 14, 13 and 16,
// so their duals (a6, a7) and (a8, a9) take 120 and 238 codes and at one
// class their table holds exactly dualCells cells; a10..a13 have 12
// values, duals of 169 codes whose table at one class is a cell over;
// a14 and a15 have 20 and 15 values, whose 21 × 16 slots pass a byte,
// so a15 pairs with a16 (3 values) instead, and a17 with a18 (4 and 2);
// a19 is wide. Every column, the class included, is missing at 10% of
// the rows.
func dualDataset(t testing.TB, seed int64, rows, nc int) *dataset.Dataset {
	t.Helper()
	cards := []int{3, 4, 2, 5, 3, 0, 7, 14, 13, 16, 12, 12, 12, 12, 20, 15, 3, 4, 2, dataset.MaxNarrowLabels + 45}
	if 8*15*14*17 != dualCells || 13*13*13*13 != dualCells+1 {
		t.Fatalf("a6..a13 do not straddle dualCells = %d", dualCells)
	}
	rng := rand.New(rand.NewSource(seed))
	codes := make([][]int32, rows)
	for r := range codes {
		row := make([]int32, len(cards)+1)
		for i := range row {
			card := nc
			if i < len(cards) {
				card = cards[i]
			}
			row[i] = dataset.Missing
			if card > 0 && rng.Float64() >= 0.1 {
				row[i] = int32(rng.Intn(card))
			}
		}
		codes[r] = row
	}
	ds := codedDataset(t, cards, nc, codes)
	if !ds.Column(19).Codes.IsWide() || ds.Column(18).Codes.IsWide() {
		t.Fatal("a19 must be stored wide and a18 narrow")
	}
	return ds
}

// allPairs requests every pair of attrs, in the order given.
func allPairs(attrs ...int) [][]int {
	var reqs [][]int
	for i, a := range attrs {
		for _, b := range attrs[i+1:] {
			reqs = append(reqs, []int{a, b})
		}
	}
	return reqs
}

// dualReqs is a request set over dualDataset's a0..a5 that pairs into
// three duals and three tables: every pair of the six in mixed
// dimension orders, one pair in both orders, duplicates, 1-D requests
// derived from pairs, pairs with the wide a19, and a 3-D request.
func dualReqs() [][]int {
	var reqs [][]int
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			if (a+b)%2 == 0 {
				reqs = append(reqs, []int{a, b})
			} else {
				reqs = append(reqs, []int{b, a})
			}
		}
	}
	return append(reqs,
		// One pair in both orders, and two duplicates.
		[]int{0, 1}, []int{0, 2}, []int{3, 5},
		// 1-D cubes derived from pairs, one requested twice.
		[]int{0}, []int{3}, []int{5}, []int{3},
		// The wide a19.
		[]int{0, 19}, []int{19, 4}, []int{19},
		[]int{4, 1, 2},
	)
}

func TestBuildManyValidation(t *testing.T) {
	ds := fig1Dataset(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		reqs [][]int
	}{
		{"out of range", [][]int{{9}}},
		{"negative", [][]int{{-1}}},
		{"class dim", [][]int{{2}}},
		{"class pair", [][]int{{0, 2}}},
		{"self pair", [][]int{{1, 1}}},
		{"empty", [][]int{{0}, {}}},
	} {
		if _, err := BuildMany(ctx, ds, tc.reqs); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	out, err := BuildMany(ctx, ds, nil)
	if err != nil || out != nil {
		t.Errorf("empty request list: got (%v, %v), want (nil, nil)", out, err)
	}
}

func TestBuildManyCounters(t *testing.T) {
	ds := fig1Dataset(t)
	scans := obsv.Default().Counter(CubeScansCounterName)
	built := obsv.Default().Counter(CubesBuiltCounterName)
	s0, b0 := scans.Value(), built.Value()
	// 4 requests, 3 distinct cubes, one scan.
	_, err := BuildMany(context.Background(), ds, [][]int{{0, 1}, {0}, {1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s0; d != 1 {
		t.Errorf("scan counter advanced by %d, want 1", d)
	}
	if d := built.Value() - b0; d != 3 {
		t.Errorf("built counter advanced by %d, want 3", d)
	}
	// A store build over six attributes: 6 1-D and 15 pair cubes, the
	// pairs counted in dual tables, still one scan over every row.
	ds6 := randomDatasetMissingClass(t, 9, 3000, 6, 4, 3, 0.05)
	attrs, err := NormalizeAttrs(ds6, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := StoreRequests(attrs)
	if plan, err := planBatch(ds6, ds6.NumClasses(), reqs); err != nil || len(plan.tables) == 0 {
		t.Fatalf("store requests form no dual tables (%v)", err)
	}
	rows := obsv.Default().Counter(RowsCountedCounterName)
	s0, b0, r0 := scans.Value(), built.Value(), rows.Value()
	if _, err := BuildMany(context.Background(), ds6, reqs); err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s0; d != 1 {
		t.Errorf("store build advanced scans by %d, want 1", d)
	}
	if d := built.Value() - b0; d != 21 {
		t.Errorf("store build advanced built by %d, want 21", d)
	}
	if d := rows.Value() - r0; d != int64(ds6.NumRows()) {
		t.Errorf("store build advanced rows counted by %d, want %d", d, ds6.NumRows())
	}
	// Build is a one-request BuildMany: one scan, one cube.
	s1, b1 := scans.Value(), built.Value()
	if _, err := Build(ds, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s1; d != 1 {
		t.Errorf("single build advanced scans by %d, want 1", d)
	}
	if d := built.Value() - b1; d != 1 {
		t.Errorf("single build advanced built by %d, want 1", d)
	}
}

func TestBuildManyCancelAndFault(t *testing.T) {
	ds := fig1Dataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildMany(ctx, ds, [][]int{{0, 1}}); err != context.Canceled {
		t.Errorf("canceled ctx: got %v", err)
	}
	disarm, err := faultinject.Arm(faultinject.Fault{Site: faultinject.SiteCubeBatch, Kind: faultinject.Error})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	if _, err := BuildMany(context.Background(), ds, [][]int{{0, 1}}); err == nil {
		t.Error("armed batch fault: expected error")
	}
}

// TestBuildManySharded forces the parallel shard-and-merge path by
// raising GOMAXPROCS over a dataset large enough to split, and checks
// the merged counts against the brute-force recount and against the
// single-shard scan.
func TestBuildManySharded(t *testing.T) {
	rows := 3 * batchShardRows
	ds := randomDatasetMissingClass(t, 42, rows, 4, 4, 2, 0.05)
	build := func(ds *dataset.Dataset, reqs [][]int, procs int) []*Cube {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cubes, err := BuildMany(context.Background(), ds, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return cubes
	}
	reqs := [][]int{{0, 1}, {2}, {0, 1, 3}}
	sharded, single := build(ds, reqs, 4), build(ds, reqs, 1)
	for i, attrs := range reqs {
		checkBruteForce(t, ds, attrs, sharded[i], fmt.Sprintf("sharded cube %v", attrs))
		if !reflect.DeepEqual(sharded[i], single[i]) {
			t.Errorf("sharded cube %v differs from the single-shard scan", attrs)
		}
	}
	// Each shard folds its own dual tables, and the single-shard scan
	// folds them once per dualChunkRows-row chunk: the merged cubes must
	// equal the single-shard scan and a lone Build, which forms no
	// table.
	if rows <= dualChunkRows {
		t.Fatalf("%d rows are one chunk", rows)
	}
	ds = dualDataset(t, 42, rows, 3)
	reqs = append(dualReqs(), allPairs(14, 15, 16, 17, 18)...)
	if plan, err := planBatch(ds, ds.NumClasses(), reqs); err != nil || len(plan.tables) == 0 {
		t.Fatalf("request set forms no dual tables (%v)", err)
	}
	sharded, single = build(ds, reqs, 4), build(ds, reqs, 1)
	for i, attrs := range reqs {
		alone, err := Build(ds, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sharded[i], single[i]) || !reflect.DeepEqual(sharded[i], alone) {
			t.Errorf("sharded cube %v differs from the single-shard scan or a lone build", attrs)
		}
	}
	checkBruteForce(t, ds, reqs[0], sharded[0], "sharded dual-table cube")
}

// BenchmarkBatchVsSequential records the shared-scan win over N
// independent builds for a sweep-shaped request set (one split
// attribute against every other).
func BenchmarkBatchVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const rows, attrs, card, classes = 20000, 40, 8, 3
	schema := dataset.Schema{ClassIndex: attrs}
	for i := 0; i < attrs; i++ {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical})
	}
	schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: "class", Kind: dataset.Categorical})
	bl, err := dataset.NewBuilder(schema)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < attrs; i++ {
		d := dataset.NewDictionary()
		for v := 0; v < card; v++ {
			d.Code(fmt.Sprintf("v%d", v))
		}
		bl.WithDict(i, d)
	}
	cd := dataset.NewDictionary()
	for c := 0; c < classes; c++ {
		cd.Code(fmt.Sprintf("c%d", c))
	}
	bl.WithDict(attrs, cd)
	codes := make([]int32, attrs+1)
	for r := 0; r < rows; r++ {
		for i := 0; i < attrs; i++ {
			codes[i] = int32(rng.Intn(card))
		}
		codes[attrs] = int32(rng.Intn(classes))
		if err := bl.AddCodedRow(codes, nil); err != nil {
			b.Fatal(err)
		}
	}
	ds, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	reqs := [][]int{{0}}
	for ai := 1; ai < attrs; ai++ {
		reqs = append(reqs, []int{0, ai}, []int{ai})
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildMany(context.Background(), ds, reqs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, attrs := range reqs {
				if _, err := Build(ds, attrs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// FuzzBuildMany decodes arbitrary bytes into a small dataset (missing
// values and classes, empty domains) and a request list (1-D, pairs in
// either order, 3-D and 4-D cubes, duplicates, the class and repeated
// attributes), and checks every cube BuildMany returns against the
// brute-force recount; an invalid list must fail, never panic. Up to
// six attributes of at most four values make duals whose every cross
// pair is requested common, so dual tables form. Bit i of wide pads
// attribute i's dictionary past dataset.MaxNarrowLabels labels (bit 7
// the class's): pairs with a wide column stay out of the duals, and a
// wide class leaves room in dualCells only for attributes of at most
// two values.
func FuzzBuildMany(f *testing.F) {
	// Seeds shaped like a store build: every pair of six, five (an odd
	// count) and four narrow attributes, then 60 rows; the last with a
	// wide class.
	store := func(cards []int, nc, wide uint8) {
		data := []byte{byte(len(cards) - 2)}
		var attrs []int
		for a, c := range cards {
			data = append(data, byte(c))
			attrs = append(attrs, a)
		}
		pairs := allPairs(attrs...)
		data = append(data, nc-1, byte(len(pairs)))
		for _, p := range pairs {
			data = append(data, 1, byte(p[0]), byte(p[1]))
		}
		for i := 0; i < 60*(len(cards)+1); i++ {
			data = append(data, byte(i*37+i*i/7))
		}
		f.Add(data, wide)
	}
	store([]int{4, 3, 4, 2, 4, 3}, 3, 0)
	store([]int{4, 4, 3, 2, 4}, 2, 0)
	store([]int{4, 2, 3, 1}, 3, 0)
	store([]int{2, 2, 1, 2, 0}, 1, 0x80)
	// Six attributes, two classes, 15 requests: two triangles of pairs,
	// a pair in both orders, a duplicate, a derived 1-D, a 3-D and a
	// 4-D cube, then 20 rows.
	tri := []byte{4, 3, 4, 2, 4, 3, 0, 1, 15, 1, 0, 1, 1, 1, 2, 1, 2, 0, 1, 3, 4, 1, 4, 5, 1, 5, 3, 1, 0, 3, 1, 3, 0, 1, 1, 4, 1, 0, 1, 0, 2, 4, 0, 2, 4, 5, 1, 2, 3, 5, 1, 2, 5, 1, 1, 5, 3, 10, 6, 2, 9, 5, 1, 8, 4, 0, 7, 3, 10, 6, 2, 9, 5, 1, 8, 4, 0, 7, 3, 10, 6, 2, 9, 5, 1, 8, 4, 0, 7, 3, 10, 6, 2, 9, 5, 1, 8, 4, 0, 7, 3, 10, 6, 2, 9, 5, 1, 8, 4, 0, 7, 3, 10, 6, 2, 9, 5, 1, 8, 4, 0, 7, 3, 10, 6, 2, 9, 5, 1, 8, 4, 0, 7, 3, 10, 6, 2, 9, 5, 1}
	f.Add(tri, uint8(0))
	f.Add(tri, uint8(0x02))
	// A triangle over one-valued attributes with a wide class.
	f.Add([]byte{1, 1, 0, 1, 0, 3, 1, 0, 1, 1, 1, 2, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(0x80))
	f.Add([]byte{2, 0, 4, 0, 3, 1, 0, 2, 2, 1, 3, 0, 1, 2, 4, 1, 0, 2, 1, 1, 1, 1}, uint8(0))
	f.Add([]byte{3, 1, 1, 1, 1, 1, 0, 0, 1, 0, 2, 0, 1, 2}, uint8(0))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, wide uint8) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		attrs := 2 + next()%5
		cards := make([]int, attrs)
		for i := range cards {
			cards[i] = next() % 5
		}
		nc := 1 + next()%3
		var reqs [][]int
		valid := true
		for i, n := 0, next()%16; i < n; i++ {
			req := make([]int, []int{1, 2, 2, 2, 3, 4}[next()%6])
			for j := range req {
				req[j] = next() % (attrs + 1)
				valid = valid && req[j] != attrs && !slices.Contains(req[:j], req[j])
			}
			reqs = append(reqs, req)
		}
		var rows [][]int32
		for len(data) > 0 && len(rows) < 256 {
			row := make([]int32, attrs+1)
			for i := range row {
				card := nc
				if i < attrs {
					card = cards[i]
				}
				row[i] = int32(next()%(card+1)) - 1
			}
			rows = append(rows, row)
		}
		for i := range cards {
			if wide&(1<<i) != 0 {
				cards[i] += dataset.MaxNarrowLabels
			}
		}
		if wide&0x80 != 0 {
			nc += dataset.MaxNarrowLabels
		}
		ds := codedDataset(t, cards, nc, rows)
		// A k-D cube whose scratch would pass maxBatchScratchCells is
		// refused by design: four wide attributes and a wide class are
		// about 1.2e12 cells.
		for _, req := range reqs {
			if !valid || len(req) < 3 {
				continue
			}
			cells := int64(ds.NumClasses())
			for _, a := range req {
				cells *= int64(cubeDim(ds, a) + 1)
			}
			valid = cells <= maxBatchScratchCells
		}
		got, err := BuildMany(context.Background(), ds, reqs)
		if !valid {
			if err == nil {
				t.Fatalf("invalid requests %v accepted", reqs)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid requests %v: %v", reqs, err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("%d cubes for %d requests", len(got), len(reqs))
		}
		for i, attrs := range reqs {
			checkBruteForce(t, ds, attrs, got[i], fmt.Sprintf("req %d %v of %v", i, attrs, reqs))
			for j, other := range reqs[:i] {
				if slices.Equal(attrs, other) && got[i] != got[j] {
					t.Fatalf("duplicate requests %d and %d %v do not share one cube", j, i, attrs)
				}
			}
		}
	})
}
