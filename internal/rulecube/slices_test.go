package rulecube

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"opmap/internal/car"
	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
)

// codedDataset builds a categorical dataset from raw codes: attribute i
// has cards[i] dictionary values (0 is an empty domain), the class
// nc values, and each row lists one code per attribute then the class
// code, dataset.Missing for a missing value.
func codedDataset(t testing.TB, cards []int, nc int, rows [][]int32) *dataset.Dataset {
	t.Helper()
	n := len(cards)
	schema := dataset.Schema{ClassIndex: n}
	for i := 0; i <= n; i++ {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical})
	}
	b, err := dataset.NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i, card := range append(append([]int(nil), cards...), nc) {
		d := dataset.NewDictionary()
		for v := 0; v < card; v++ {
			d.Code(fmt.Sprintf("v%d", v))
		}
		b.WithDict(i, d)
	}
	for _, r := range rows {
		if err := b.AddCodedRow(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// randomSliceDataset draws a dataset whose attributes and class carry
// missing values; attribute 1 has an empty domain, and the split
// attribute 0 only ever takes its first `used` of card values, so
// codes in [used, card) are absent from the data.
func randomSliceDataset(t testing.TB, rng *rand.Rand, rows, used int) *dataset.Dataset {
	cards := []int{5, 0, 3, 4, 2}
	const nc = 3
	codes := make([][]int32, rows)
	for r := range codes {
		row := make([]int32, len(cards)+1)
		for i := range row {
			card := nc
			if i < len(cards) {
				card = cards[i]
			}
			if i == 0 {
				card = used
			}
			row[i] = dataset.Missing
			if card > 0 && rng.Float64() >= 0.15 {
				row[i] = int32(rng.Intn(card))
			}
		}
		codes[r] = row
	}
	return codedDataset(t, cards, nc, codes)
}

// sliceCells flattens a slice table through Slice.Fill, side by side,
// value by value, class by class, with each (side, value)'s condition
// count after its classes.
func sliceCells(s Slices) []int64 {
	var out []int64
	cond := make([]int64, s.Dim())
	sup := make([][]int64, s.nc) // sup[class][value]
	for side := 0; side < 2; side++ {
		for c := range sup {
			sup[c] = make([]int64, s.Dim())
			s.Fill(side, int32(c), cond, sup[c])
		}
		for v := range cond {
			for c := range sup {
				out = append(out, sup[c][v])
			}
			out = append(out, cond[v])
		}
	}
	return out
}

// holdsAll reports whether every condition of where holds at row r.
func holdsAll(ds *dataset.Dataset, where []car.Condition, r int) bool {
	for _, f := range where {
		if ds.CatCode(r, f.Attr) != f.Value {
			return false
		}
	}
	return true
}

// checkSlices fails unless got holds, for every candidate, the two
// slices of the pair cube (a1, b) over the rows at which every
// condition of where holds, as the brute-force recount and BuildMany's
// pair cubes (both dimension orders) of those rows count them, and sel
// holds their input rules, Total and Matched as a recount of the same
// rows does. It also checks that SelectRows hands on exactly those
// rows, in order, with their (side, class) offsets.
func checkSlices(t *testing.T, ds *dataset.Dataset, a1 int, v1, v2 int32, where []car.Condition, cands []int, got []Slices, sel Selection) {
	t.Helper()
	if len(got) != len(cands) {
		t.Fatalf("got %d tables for %d candidates", len(got), len(cands))
	}
	nc := ds.NumClasses()
	keep := func(r int) bool { return holdsAll(ds, where, r) }
	rules := make([]int64, 2*nc)
	var want Selection
	var rows, offs []int32
	for r := 0; r < ds.NumRows(); r++ {
		if !keep(r) {
			continue
		}
		want.Matched++
		v, c := ds.CatCode(r, a1), ds.ClassCode(r)
		if v < 0 || c < 0 {
			continue
		}
		want.Total++
		for side, vs := range []int32{v1, v2} {
			if v == vs {
				rules[side*nc+int(c)]++
				rows, offs = append(rows, int32(r)), append(offs, int32(side*nc)+c)
			}
		}
	}
	if sel.Total != want.Total || sel.Matched != want.Matched || sel.Rules.Dim() != 1 ||
		!reflect.DeepEqual(sliceCells(sel.Rules), sliceCells(Slices{dim: 1, nc: nc, stride: 2 * nc, sides: [2][]int64{rules, rules[nc:]}})) {
		t.Fatalf("selection %+v, brute force %+v with rules %v", sel, want, rules)
	}
	var walked, walkedOffs []int32
	walk, err := SelectRows(context.Background(), ds, a1, v1, v2, where, func(lo int, sel, off []int32) {
		for j, r := range sel {
			walked, walkedOffs = append(walked, int32(lo)+r), append(walkedOffs, off[j])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(walk, want) || !slices.Equal(walked, rows) || !slices.Equal(walkedOffs, offs) {
		t.Fatalf("SelectRows walked rows %v with offsets %v and counted %+v; brute force %v, %v, %+v",
			walked, walkedOffs, walk, rows, offs, want)
	}
	sub := ds.Filter(keep)
	for i, b := range cands {
		s := got[i]
		if s.Dim() != cubeDim(ds, b) {
			t.Fatalf("candidate %d: dim %d, want %d", b, s.Dim(), cubeDim(ds, b))
		}
		naive, _ := naiveCells(sub, []int{a1, b})
		var want []int64
		for _, va := range []int32{v1, v2} {
			for vb := int32(0); int(vb) < s.Dim(); vb++ {
				var cond int64
				for c := int32(0); int(c) < nc; c++ {
					n := naive[fmt.Sprint([]int32{va, vb}, c)]
					want = append(want, n)
					cond += n
				}
				want = append(want, cond)
			}
		}
		if got := sliceCells(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("candidate %d: cells %v, brute force %v", b, got, want)
		}
		if int(max(v1, v2)) >= cubeDim(ds, a1) {
			continue // no such slice in the pair cube
		}
		cubes, err := BuildMany(context.Background(), sub, [][]int{{a1, b}, {b, a1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cubes {
			fromCube, err := SlicesOf(c, a1, v1, v2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sliceCells(fromCube), want) {
				t.Fatalf("candidate %d: slices of pair cube %v differ from the brute force", b, c.AttrIndices())
			}
		}
	}
}

// TestCountSlicesOracle checks the slice kernel against the
// brute-force recount and BuildMany's pair cubes on random small
// datasets with missing values and classes, an empty-domain candidate,
// split values absent from the data, duplicate candidates, and fixed
// conditions: one, two, one on a candidate, and one no row holds.
func TestCountSlicesOracle(t *testing.T) {
	for trial := int64(0); trial < 6; trial++ {
		rng := rand.New(rand.NewSource(trial))
		ds := randomSliceDataset(t, rng, 1+rng.Intn(3*scanBlockRows), 3)
		for _, tc := range []struct {
			a1     int
			v1, v2 int32
			where  []car.Condition
			cands  []int
		}{
			{0, 0, 1, nil, []int{1, 2, 3, 4}},
			{0, 2, 1, nil, []int{4, 2, 4, 3, 2}}, // duplicates
			{0, 1, 4, nil, []int{2, 3}},          // v2 absent from the data
			{0, 3, 4, nil, []int{1, 2}},          // both absent: every table empty
			{0, 0, 9, nil, []int{2}},             // v2 beyond the dictionary
			{3, 3, 0, nil, []int{0, 1, 2, 4}},
			{2, 0, 2, nil, nil},
			{0, 0, 1, []car.Condition{{Attr: 3, Value: 2}}, []int{1, 2, 4}},
			{0, 2, 0, []car.Condition{{Attr: 4, Value: 1}, {Attr: 2, Value: 0}}, []int{3}},
			{0, 0, 2, []car.Condition{{Attr: 2, Value: 1}}, []int{4, 3}},
			{0, 0, 1, []car.Condition{{Attr: 3, Value: 3}}, nil},      // no candidate
			{3, 0, 1, []car.Condition{{Attr: 0, Value: 4}}, []int{2}}, // no row holds it
		} {
			got, sel, err := CountSlices(context.Background(), ds, tc.a1, tc.v1, tc.v2, tc.where, tc.cands)
			if err != nil {
				t.Fatalf("trial %d %+v: %v", trial, tc, err)
			}
			checkSlices(t, ds, tc.a1, tc.v1, tc.v2, tc.where, tc.cands, got, sel)
		}
	}
}

// TestCountSlicesJoined checks the joint-plan edges against the
// brute-force recount: every count of narrow candidates from 0 to 5 (a
// pair or a single left over), a pair whose joint table holds exactly
// jointCells cells and one a single value over, a wide candidate
// between two narrow ones, and a duplicate candidate on both sides of a
// pair, on data with missing candidate values and missing classes.
func TestCountSlicesJoined(t *testing.T) {
	const nc = 2
	// (15+1) × (atBound+1) × 2 × nc == jointCells.
	atBound := jointCells/(16*2*nc) - 1
	// a0 splits; a1..a5 are narrow (a5's domain empty); a6, a7 and a8
	// have 15, atBound and atBound+1 values; a9 is wide.
	cards := []int{3, 2, 3, 4, 6, 0, 15, atBound, atBound + 1, dataset.MaxNarrowLabels + 45}
	rng := rand.New(rand.NewSource(5))
	codes := make([][]int32, 3*scanBlockRows+100)
	for r := range codes {
		row := make([]int32, len(cards)+1)
		for i := range row {
			card := nc
			if i < len(cards) {
				card = cards[i]
			}
			row[i] = dataset.Missing
			if card > 0 && rng.Float64() >= 0.15 {
				row[i] = int32(rng.Intn(card))
			}
		}
		codes[r] = row
	}
	ds := codedDataset(t, cards, nc, codes)
	if !ds.Column(9).Codes.IsWide() || ds.Column(8).Codes.IsWide() {
		t.Fatal("a9 must be stored wide and a8 narrow")
	}
	type tc struct {
		cands               []int
		joint, narrow, wide int
	}
	cases := []tc{
		{[]int{6, 7}, 1, 0, 0},       // exactly jointCells
		{[]int{6, 8}, 0, 2, 0},       // one value over
		{[]int{6, 8, 7, 1}, 2, 0, 0}, // a1 joins a8, a6 joins a7
		{[]int{1, 9, 2}, 1, 0, 1},    // wide between two narrow
		{[]int{3, 4, 3}, 1, 0, 0},    // duplicate on both sides
		{[]int{2, 2}, 0, 1, 0},
	}
	for n := 0; n <= 5; n++ {
		cases = append(cases, tc{[]int{1, 2, 3, 4, 5}[:n], n / 2, n % 2, 0})
	}
	for _, c := range cases {
		plans, _ := planSlices(ds, nc, c.cands)
		if len(plans.joint) != c.joint || len(plans.narrow) != c.narrow || len(plans.wide) != c.wide {
			t.Errorf("candidates %v: %d joint, %d narrow, %d wide plans, want %d, %d, %d", c.cands,
				len(plans.joint), len(plans.narrow), len(plans.wide), c.joint, c.narrow, c.wide)
		}
		for _, vs := range [][2]int32{{0, 2}, {1, 0}} {
			got, sel, err := CountSlices(context.Background(), ds, 0, vs[0], vs[1], nil, c.cands)
			if err != nil {
				t.Fatal(err)
			}
			checkSlices(t, ds, 0, vs[0], vs[1], nil, c.cands, got, sel)
		}
	}
}

func TestCountSlicesValidation(t *testing.T) {
	ds := fig1Dataset(t) // A1, A2, class
	for _, tc := range []struct {
		name   string
		a1     int
		v1, v2 int32
		where  []car.Condition
		cands  []int
	}{
		{"class split", 2, 0, 1, nil, []int{0}},
		{"split out of range", 5, 0, 1, nil, []int{0}},
		{"equal values", 0, 1, 1, nil, []int{1}},
		{"negative value", 0, -1, 1, nil, []int{1}},
		{"split as candidate", 0, 0, 1, nil, []int{1, 0}},
		{"class candidate", 0, 0, 1, nil, []int{2}},
		{"candidate out of range", 0, 0, 1, nil, []int{-1}},
		{"condition out of range", 0, 0, 1, []car.Condition{{Attr: 3, Value: 0}}, []int{1}},
		{"condition on the class", 0, 0, 1, []car.Condition{{Attr: 2, Value: 0}}, []int{1}},
		{"condition on the split", 0, 0, 1, []car.Condition{{Attr: 0, Value: 0}}, []int{1}},
		{"duplicate condition", 0, 0, 1, []car.Condition{{Attr: 1, Value: 0}, {Attr: 1, Value: 0}}, nil},
		{"condition value out of range", 0, 0, 1, []car.Condition{{Attr: 1, Value: 9}}, nil},
		{"negative condition value", 0, 0, 1, []car.Condition{{Attr: 1, Value: -1}}, nil},
		{"fixed candidate", 0, 0, 1, []car.Condition{{Attr: 1, Value: 0}}, []int{1}},
	} {
		if _, _, err := CountSlices(context.Background(), ds, tc.a1, tc.v1, tc.v2, tc.where, tc.cands); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
		if tc.cands != nil {
			continue
		}
		if _, err := SelectRows(context.Background(), ds, tc.a1, tc.v1, tc.v2, tc.where, func(int, []int32, []int32) {}); err == nil {
			t.Errorf("%s: SelectRows: expected error", tc.name)
		}
	}
	cubes, err := BuildMany(context.Background(), ds, [][]int{{0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SlicesOf(cubes[0], 0, 0, 1); err == nil {
		t.Error("SlicesOf a 1-D cube: expected error")
	}
	if _, err := SlicesOf(cubes[1], 0, 0, int32(cubes[1].Dim(0))); err == nil {
		t.Error("SlicesOf a value beyond the split dimension: expected error")
	}
}

// TestCountSlicesCounters pins the pass's counters, without and with a
// fixed condition: one scan, the selected rows (either side, class
// present, every condition holding) as rows counted, and no cube built.
func TestCountSlicesCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := randomSliceDataset(t, rng, 5000, 4)
	reg := obsv.Default()
	for _, pass := range []struct {
		where []car.Condition
		cands []int
	}{{nil, []int{1, 2, 3, 4}}, {[]car.Condition{{Attr: 3, Value: 2}}, []int{1, 2, 4}}} {
		where := pass.where
		var selected int64
		for r := 0; r < ds.NumRows(); r++ {
			if v := ds.CatCode(r, 0); (v == 1 || v == 3) && ds.ClassCode(r) >= 0 && holdsAll(ds, where, r) {
				selected++
			}
		}
		s0 := reg.Counter(CubeScansCounterName).Value()
		r0 := reg.Counter(RowsCountedCounterName).Value()
		b0 := reg.Counter(CubesBuiltCounterName).Value()
		if _, _, err := CountSlices(context.Background(), ds, 0, 3, 1, where, pass.cands); err != nil {
			t.Fatal(err)
		}
		if d := reg.Counter(CubeScansCounterName).Value() - s0; d != 1 {
			t.Errorf("conditions %v: scan counter advanced by %d, want 1", where, d)
		}
		if d := reg.Counter(RowsCountedCounterName).Value() - r0; d != selected {
			t.Errorf("conditions %v: rows counted advanced by %d, want the %d selected rows", where, d, selected)
		}
		if d := reg.Counter(CubesBuiltCounterName).Value() - b0; d != 0 {
			t.Errorf("conditions %v: cubes built advanced by %d, want 0", where, d)
		}
	}
	// BuildMany counts every row.
	r1 := reg.Counter(RowsCountedCounterName).Value()
	if _, err := BuildMany(context.Background(), ds, [][]int{{0, 2}, {3}}); err != nil {
		t.Fatal(err)
	}
	if d := reg.Counter(RowsCountedCounterName).Value() - r1; d != int64(ds.NumRows()) {
		t.Errorf("BuildMany advanced rows counted by %d, want %d", d, ds.NumRows())
	}
}

// TestCountSlicesCancelAndFault: a done context returns ctx.Err(), an
// armed batch fault fails the pass, a cancel mid-pass stops it at the
// next block, and none of them advances the scan counter.
func TestCountSlicesCancelAndFault(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randomSliceDataset(t, rng, 4*scanBlockRows, 3)
	scans := obsv.Default().Counter(CubeScansCounterName)
	s0 := scans.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CountSlices(ctx, ds, 0, 0, 1, nil, []int{2, 3}); err != context.Canceled {
		t.Errorf("canceled ctx: got %v", err)
	}
	mid := &cancelAtCtx{Context: context.Background(), at: 3}
	if _, _, err := CountSlices(mid, ds, 0, 0, 1, nil, []int{2, 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancel mid-pass: got %v", err)
	}
	if mid.polls != mid.at {
		t.Errorf("pass polled ctx %d times after it reported done at poll %d", mid.polls, mid.at)
	}
	disarm, err := faultinject.Arm(faultinject.Fault{Site: faultinject.SiteCubeBatch, Kind: faultinject.Error})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	if _, _, err := CountSlices(context.Background(), ds, 0, 0, 1, nil, []int{2, 3}); err == nil {
		t.Error("armed batch fault: expected error")
	}
	if d := scans.Value() - s0; d != 0 {
		t.Errorf("failed passes advanced the scan counter by %d, want 0", d)
	}
}

// cancelAtCtx reports context.Canceled from its at-th Err poll on.
type cancelAtCtx struct {
	context.Context
	polls, at int
}

func (c *cancelAtCtx) Err() error {
	if c.polls++; c.polls >= c.at {
		return context.Canceled
	}
	return nil
}

// FuzzCountSlices decodes arbitrary bytes into a small dataset (missing
// values and classes, empty domains) and a slice request (any split
// values, duplicate candidates, zero to two fixed conditions on any
// attribute and value), and checks the pass against the brute-force
// recount and BuildMany's pair cubes of the rows the conditions keep.
// Invalid requests must fail, never panic. Bit i of wide pads attribute i's dictionary
// (bit 7 the class's) past dataset.MaxNarrowLabels labels, which
// stores that column at four bytes per row, so the pass runs at every
// mix of code widths.
func FuzzCountSlices(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 0, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0))
	f.Add([]byte{4, 3, 3, 4, 1, 0, 2, 2, 2, 1, 0, 1, 2, 3, 4, 0, 0, 1, 1}, uint8(0))
	f.Add([]byte{2, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(0))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 2, 0, 1, 0, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0xff))
	f.Add([]byte{4, 3, 3, 4, 1, 0, 2, 2, 2, 1, 0, 1, 2, 3, 4, 0, 0, 1, 1}, uint8(0x85))
	f.Fuzz(func(t *testing.T, data []byte, wide uint8) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		attrs := 2 + next()%3
		cards := make([]int, attrs)
		for i := range cards {
			cards[i] = next() % 5
		}
		nc := 1 + next()%3
		a1, v1, v2 := next()%attrs, int32(next()%7)-1, int32(next()%7)-1
		var cands []int
		for i, n := 0, next()%6; i < n; i++ {
			cands = append(cands, next()%(attrs+1))
		}
		var where []car.Condition
		for i, n := 0, next()%3; i < n; i++ {
			where = append(where, car.Condition{Attr: next() % (attrs + 2), Value: int32(next()%7) - 1})
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
		for i := 0; i < ds.NumAttrs(); i++ {
			if got, want := ds.Column(i).Codes.IsWide(), ds.Cardinality(i) > dataset.MaxNarrowLabels; got != want {
				t.Fatalf("attribute %d with %d labels: wide %v", i, ds.Cardinality(i), got)
			}
		}
		got, sel, err := CountSlices(context.Background(), ds, a1, v1, v2, where, cands)
		valid := v1 >= 0 && v2 >= 0 && v1 != v2
		for _, b := range cands {
			valid = valid && b != a1 && b != attrs && !slices.ContainsFunc(where, func(f car.Condition) bool { return f.Attr == b })
		}
		for i, f := range where {
			valid = valid && f.Attr < attrs && f.Attr != a1 && f.Value >= 0 && int(f.Value) < ds.Cardinality(f.Attr)
			for _, g := range where[:i] {
				valid = valid && g.Attr != f.Attr
			}
		}
		if !valid {
			if err == nil {
				t.Fatalf("invalid request (split %d, values %d/%d, conditions %v, candidates %v) accepted", a1, v1, v2, where, cands)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid request (split %d, values %d/%d, conditions %v, candidates %v): %v", a1, v1, v2, where, cands, err)
		}
		checkSlices(t, ds, a1, v1, v2, where, cands, got, sel)
	})
}

// TestCountSlicesConcurrentPasses runs passes of different shapes at
// once, at GOMAXPROCS 2, so that they take and return the pooled
// scratch concurrently: every pass must count what the same request
// counted alone. Under -race it checks that no two passes share a
// passBuf.
func TestCountSlicesConcurrentPasses(t *testing.T) {
	type req struct {
		ds     *dataset.Dataset
		v1, v2 int32
		cands  []int
	}
	rng := rand.New(rand.NewSource(29))
	big, small := randomSliceDataset(t, rng, 9*scanBlockRows+7, 4), randomSliceDataset(t, rng, 3*scanBlockRows, 4)
	reqs := []req{
		{big, 0, 1, []int{1, 2, 3, 4}},
		{big, 3, 2, []int{4, 3}},
		{small, 1, 0, []int{2, 3, 4, 2}},
		{small, 2, 3, []int{1}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	want := make([][][]int64, len(reqs))
	for i, r := range reqs {
		got, sel, err := CountSlices(context.Background(), r.ds, 0, r.v1, r.v2, nil, r.cands)
		if err != nil {
			t.Fatal(err)
		}
		checkSlices(t, r.ds, 0, r.v1, r.v2, nil, r.cands, got, sel)
		for _, s := range got {
			want[i] = append(want[i], sliceCells(s))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				for i := range reqs {
					r := reqs[(i+w)%len(reqs)]
					got, _, err := CountSlices(context.Background(), r.ds, 0, r.v1, r.v2, nil, r.cands)
					if err != nil {
						errs <- err
						return
					}
					var cells [][]int64
					for _, s := range got {
						cells = append(cells, sliceCells(s))
					}
					if !reflect.DeepEqual(cells, want[(i+w)%len(reqs)]) {
						errs <- fmt.Errorf("request %d counted apart from its lone pass", (i+w)%len(reqs))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkCountSlices times one slice pass at the benchmark workload's
// shape: 100,000 rows, a six-valued split attribute compared on two of
// its values (about a third of the rows selected), three classes skewed
// 96/3/1, with 2% of candidate values missing. "six-valued" is a lazy
// compare's 80 candidates, and "drill-root" a drill-down root compare's
// 20 six-valued ones. The other two cases straddle jointCells: 80
// 17-valued candidates pair into joint tables of 1,944 cells, just
// under the bound, and 80 18-valued ones, whose joint table would hold
// 2,166, are tallied single.
func BenchmarkCountSlices(b *testing.B) {
	for _, bc := range []struct {
		name        string
		cands, card int
	}{{"six-valued", 80, 6}, {"drill-root", 20, 6}, {"17-valued", 80, 17}, {"18-valued", 80, 18}} {
		b.Run(bc.name, func(b *testing.B) {
			ds, cands := sliceBenchDataset(b, 100_000, bc.cands, bc.card)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := CountSlices(context.Background(), ds, 0, 0, 1, nil, cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sliceBenchDataset draws BenchmarkCountSlices' dataset: a six-valued
// split attribute 0 and nCands candidates of card values each.
func sliceBenchDataset(b *testing.B, rows, nCands, card int) (*dataset.Dataset, []int) {
	rng := rand.New(rand.NewSource(1))
	cards := make([]int, nCands+1)
	for i := range cards {
		cards[i] = card
	}
	cards[0] = 6
	codes := make([][]int32, rows)
	for r := range codes {
		row := make([]int32, nCands+2)
		for i := range cards {
			row[i] = int32(rng.Intn(cards[i]))
			if i > 0 && rng.Intn(50) == 0 {
				row[i] = dataset.Missing
			}
		}
		switch x := rng.Intn(100); {
		case x < 96:
			row[nCands+1] = 0
		case x < 99:
			row[nCands+1] = 1
		default:
			row[nCands+1] = 2
		}
		codes[r] = row
	}
	cands := make([]int, nCands)
	for i := range cands {
		cands[i] = i + 1
	}
	return codedDataset(b, cards, 3, codes), cands
}
