package rulecube

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
)

// Shared-scan batch building (DESIGN.md §14). BuildMany is the one
// code path that counts rows into cubes: Build is a one-request call,
// the engine's PinAll one call over every 1-D and pair cube
// (StoreRequests), and the lazy engine sends its misses here. A sweep or a one-vs-rest over all values needs
// the split attribute's 1-D cube plus one pair cube (and possibly one
// 1-D marginal) per ranked attribute — dozens of cubes whose
// independent builds would each re-scan the same rows. BuildMany counts
// every requested cube in a single pass: one scratch accumulator per
// distinct cube, a branch-free inner loop, and an extraction step that
// also derives 1-D marginals from pair scratch for free. COMPARE
// (arXiv:2107.11967) observes that groupwise comparisons share one scan
// and one aggregation pass this way instead of carrying per-pair state
// through separate scans.

// CubeScansCounterName counts full dataset passes performed to count
// cubes: one per BuildMany call (Build and PinAll included),
// however many cubes that one scan produced. The ratio of
// opmap_cubes_built_total to this counter is the shared-scan
// amplification.
const CubeScansCounterName = "opmap_cube_scans_total"

// batchShardRows is the minimum number of rows each parallel scan
// shard must cover before BuildMany splits the pass; below that the
// per-shard scratch allocation and merge cost more than they save.
const batchShardRows = 1 << 16

// pairPlan accumulates one pair cube during the shared scan. The
// scratch array is laid out (dimA+1) × (dimB+1) × numClasses: slot 0 of
// each condition dimension catches missing values (code -1 lands there
// via the +1 shift), which keeps the inner loop branch-free and — since
// a row with a present class is counted *somewhere* in the array — lets
// extraction marginalize a dimension across all its slots to reproduce
// the other dimension's exact 1-D cube without extra scan work.
type pairPlan struct {
	a, b       int
	colA, colB dataset.Codes
	dimA, dimB int
	strideA    int // (dimB+1) * numClasses
	scratch    []int64
}

// wideBit is 1 for a wide column and 0 for a narrow one; a pair plan's
// width group is its first column's bit << 1 | its second's.
func wideBit(c *dataset.Codes) int {
	if c.IsWide() {
		return 1
	}
	return 0
}

// dualCells bounds a dual table: 28,560 uint32 cells, about 112 KiB,
// where all-pairs builds over 10 k rows stop winning clearly (DESIGN.md
// §14, "Dual tables"). The tests form a table exactly at the bound (120
// × 238 codes at one class) and none a cell over (169 × 169).
const dualCells = 28560

// dualChunkRows bounds the rows whose dual codes a scan shard holds at
// once, a byte per row per dual. Each table is folded once per chunk,
// so a uint32 cell, which counts one chunk's rows, cannot wrap.
const dualChunkRows = 1 << 17

// dual reads two narrow attributes as one byte per row. A row with
// values x and y is in slot (x+1)·(dim_y+1) + (y+1), so a missing value
// lands in slot 0 of its dimension as in a pairPlan; its code is one
// less, wrapping as a narrow column's Missing does, so tallyPair's +1
// shift takes every code to its slot. planDuals pairs two attributes
// only where (dim_x+1)·(dim_y+1) ≤ 256, so every slot fits a byte.
type dual struct {
	attrs [2]int
	cols  [2][]uint8
	sizes [2]int // dim+1 of each attribute
}

// size is the number of slots of d's codes.
func (d *dual) size() int { return d.sizes[0] * d.sizes[1] }

// dualTable counts the codes of duals g and h and the class in one table
// of size_g × size_h × numClasses cells: each row bumps one cell, where
// the four pair plans across the duals would bump one cell apiece. Its
// folds route it into those pairs' scratch, and into the pair inside h
// where that pair is requested and no other table folds it.
type dualTable struct {
	g, h  int
	folds []dualFold
}

// dualFold routes one marginal of a dual table into a pair plan: the
// pair's first attribute is dimension i of marginal src, its second
// dimension j, and the third dimension is summed. Marginal 0 is the
// table summed over g's second attribute, with dimensions (g's first,
// h's first, h's second); marginal 1 the table summed over g's first,
// (g's second, h's first, h's second).
type dualFold struct {
	pair, src, i, j int
}

// onePlan accumulates a 1-D cube that no requested pair covers; its
// scratch is (dim+1) × numClasses with the same missing slot 0.
type onePlan struct {
	a       int
	col     dataset.Codes
	dim     int
	scratch []int64
}

// kPlan accumulates one k-D cube (k ≥ 3) during the shared scan. Its
// scratch generalizes the pair layout: Π(dim_i+1) × numClasses with
// slot 0 of every condition dimension catching missing values, so the
// inner loop stays branch-free at any arity.
type kPlan struct {
	attrs   []int
	cols    []dataset.Codes
	dims    []int
	strides []int // strides[i] = numClasses × Π_{j>i}(dims[j]+1)
	scratch []int64
}

// maxBatchScratchCells bounds one k-D plan's scratch allocation: a
// request whose (dim+1)-product exceeds it is rejected up front rather
// than attempted. It is the only size guard: nothing checks a cube's
// bytes against a cache budget before it is counted, in the lazy
// engine or elsewhere.
const maxBatchScratchCells = 1 << 31

// cubeDim sizes a cube's condition dimension: an attribute with an
// empty domain still needs one slot.
func cubeDim(ds *dataset.Dataset, a int) int {
	card := ds.Cardinality(a)
	if card == 0 {
		card = 1
	}
	return card
}

// BuildMany counts every requested cube in one pass over ds (plus a
// cells-proportional extraction), advancing the scan counter once and
// the cubes-built counter per distinct cube. Each request is the
// ordered list of a cube's condition attributes; rows with a missing
// value in any cube dimension (including the class) are skipped.
// Results arrive in request order; duplicate requests share one
// underlying cube. Narrow attributes are read two at a time as one-byte
// duals, and where every pair across two duals is requested, each row
// bumps one cell of their dual table instead of up to four pair cells;
// each shard folds the table into those pairs' scratch once per chunk
// of rows (planDuals). The scan parallelizes across GOMAXPROCS row
// shards when the dataset is large enough (counts are additive, so
// shard partials merge by summation). Every shard polls ctx once per
// scanBlockRows-row block and once per dual table, so a cancel
// mid-scan returns ctx.Err() within one block's or table's work and
// leaves no goroutine behind.
func BuildMany(ctx context.Context, ds *dataset.Dataset, reqs [][]int) ([]*Cube, error) {
	if !ds.AllCategorical() {
		return nil, fmt.Errorf("rulecube: dataset has continuous attributes; discretize first")
	}
	if err := validateBatchReqs(ds, reqs); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faultinject.HitContext(ctx, faultinject.SiteCubeBatch); err != nil {
		return nil, err
	}

	start := time.Now()
	nc := ds.NumClasses()
	plan, err := planBatch(ds, nc, reqs)
	if err != nil {
		return nil, err
	}
	if err := scanAll(ctx, &ds.Column(ds.ClassIndex()).Codes, nc, plan, ds.NumRows()); err != nil {
		return nil, err
	}

	out, built := extractAll(ds, nc, reqs, plan)
	if obsv.HotArmed() {
		obsv.Default().Histogram(obsv.CubeBuildHistogramName, nil).ObserveSince(start)
	}
	obsv.Default().Counter(CubesBuiltCounterName).Add(int64(built))
	obsv.Default().Counter(CubeScansCounterName).Inc()
	obsv.Default().Counter(RowsCountedCounterName).Add(int64(ds.NumRows()))
	return out, nil
}

// validateBatchReqs rejects empty, out-of-range, class-dimension, and
// duplicate-attribute requests before any allocation.
func validateBatchReqs(ds *dataset.Dataset, reqs [][]int) error {
	classIdx := ds.ClassIndex()
	for _, attrs := range reqs {
		if len(attrs) == 0 {
			return fmt.Errorf("rulecube: cube request names no attributes")
		}
		for i, a := range attrs {
			if a < 0 || a >= ds.NumAttrs() {
				return fmt.Errorf("rulecube: attribute index %d out of range", a)
			}
			if a == classIdx {
				return fmt.Errorf("rulecube: class attribute cannot be a condition dimension")
			}
			for _, b := range attrs[:i] {
				if a == b {
					return fmt.Errorf("rulecube: duplicate attribute %d", a)
				}
			}
		}
	}
	return nil
}

// batchPlan is the deduplicated working set of one shared scan: one
// pairPlan per distinct pair, one onePlan per 1-D request no pair
// covers, and the index maps extraction uses to route each request to
// its accumulator. tables counts narrow pairs up to four at a time
// (every pair plan keeps its scratch, which the tables fold into), and
// pairsByWidth lists the pair plans no table covers. pairsByWidth and
// onesByWidth group the plans by their columns' code widths (wideBit),
// so the scan picks each tally loop once per pass.
type batchPlan struct {
	pairs        []pairPlan
	ones         []onePlan
	ks           []kPlan
	duals        []dual
	tables       []dualTable
	dualWork     int // cells of the largest dual table plus its fold's marginals
	pairsByWidth [4][]int
	onesByWidth  [2][]int
	pairIdx      map[[2]int]int
	oneIdx       map[int]int
	kIdx         map[string]int // ordered attr-list key -> kPlan index
	derived      map[int][2]int // attr -> {pair plan index, dimension position}
}

// kKey is the dedup key of a k-D request: its exact ordered dimension
// list (order fixes the cube's dimension order, so [a b c] and
// [b a c] are distinct cubes).
func kKey(attrs []int) string { return fmt.Sprint(attrs) }

// planBatch dedupes the requests into scan plans, routing 1-D requests
// through a covering pair's scratch whenever one exists, narrow pairs
// into dual tables where planDuals forms them, and k ≥ 3 requests
// into k-D plans.
func planBatch(ds *dataset.Dataset, nc int, reqs [][]int) (*batchPlan, error) {
	p := &batchPlan{
		pairIdx: make(map[[2]int]int),
		oneIdx:  make(map[int]int),
		kIdx:    make(map[string]int),
		derived: make(map[int][2]int),
	}
	for _, attrs := range reqs {
		if len(attrs) != 2 {
			continue
		}
		a, b := attrs[0], attrs[1]
		k := [2]int{a, b}
		if _, ok := p.pairIdx[k]; ok {
			continue
		}
		dimA, dimB := cubeDim(ds, a), cubeDim(ds, b)
		p.pairIdx[k] = len(p.pairs)
		w := wideBit(&ds.Column(a).Codes)<<1 | wideBit(&ds.Column(b).Codes)
		p.pairsByWidth[w] = append(p.pairsByWidth[w], len(p.pairs))
		p.pairs = append(p.pairs, pairPlan{
			a: a, b: b,
			colA: ds.Column(a).Codes, colB: ds.Column(b).Codes,
			dimA: dimA, dimB: dimB,
			strideA: (dimB + 1) * nc,
			scratch: make([]int64, (dimA+1)*(dimB+1)*nc),
		})
	}
	p.planDuals(ds, nc)
	for _, attrs := range reqs {
		if len(attrs) < 3 {
			continue
		}
		key := kKey(attrs)
		if _, ok := p.kIdx[key]; ok {
			continue
		}
		kp := kPlan{attrs: append([]int(nil), attrs...)}
		cells := int64(nc)
		for _, a := range attrs {
			d := cubeDim(ds, a)
			kp.dims = append(kp.dims, d)
			kp.cols = append(kp.cols, ds.Column(a).Codes)
			if cells > maxBatchScratchCells/int64(d+1) {
				return nil, fmt.Errorf("rulecube: cube over attributes %v too large to count (> %d scratch cells)", attrs, int64(maxBatchScratchCells))
			}
			cells *= int64(d + 1)
		}
		kp.strides = make([]int, len(attrs))
		stride := nc
		for i := len(attrs) - 1; i >= 0; i-- {
			kp.strides[i] = stride
			stride *= kp.dims[i] + 1
		}
		kp.scratch = make([]int64, cells)
		p.kIdx[key] = len(p.ks)
		p.ks = append(p.ks, kp)
	}
	for _, attrs := range reqs {
		if len(attrs) != 1 {
			continue
		}
		a := attrs[0]
		if _, ok := p.oneIdx[a]; ok {
			continue
		}
		if _, ok := p.derived[a]; ok {
			continue
		}
		pos := findPairFor(p.pairs, a)
		if pos[0] >= 0 {
			p.derived[a] = pos
			continue
		}
		d := cubeDim(ds, a)
		p.oneIdx[a] = len(p.ones)
		w := wideBit(&ds.Column(a).Codes)
		p.onesByWidth[w] = append(p.onesByWidth[w], len(p.ones))
		p.ones = append(p.ones, onePlan{
			a: a, col: ds.Column(a).Codes,
			dim: d, scratch: make([]int64, (d+1)*nc),
		})
	}
	return p, nil
}

// planDuals pairs the attributes of the narrow pair plans into duals,
// in attribute order, wherever their codes fit one byte, and gives duals
// g < h a table when all four pairs across them are requested (in
// either order, or both) and the table holds at most dualCells cells.
// A dual's inner pair is folded from a table that has the dual as h; an
// attribute left unpaired, and the inner pair of a dual that is no
// table's h (the first), keep their pairs in the pair loop. A sweep's
// star of pairs around its split attribute forms no table: two duals
// away from the split attribute have unrequested pairs across them. The
// folded pairs leave pairsByWidth[0], and duals in no table are dropped.
func (p *batchPlan) planDuals(ds *dataset.Dataset, nc int) {
	var attrs []int
	for _, pi := range p.pairsByWidth[0] {
		attrs = append(attrs, p.pairs[pi].a, p.pairs[pi].b)
	}
	slices.Sort(attrs)
	attrs = slices.Compact(attrs)
	var duals []dual
	for i := 0; i+1 < len(attrs); i++ {
		x, y := attrs[i], attrs[i+1]
		if sx, sy := cubeDim(ds, x)+1, cubeDim(ds, y)+1; sx*sy <= 256 {
			cols := [2][]uint8{ds.Column(x).Codes.Narrow(), ds.Column(y).Codes.Narrow()}
			duals = append(duals, dual{attrs: [2]int{x, y}, cols: cols, sizes: [2]int{sx, sy}})
			i++
		}
	}
	requested := func(a, b int) bool {
		_, ab := p.pairIdx[[2]int{a, b}]
		_, ba := p.pairIdx[[2]int{b, a}]
		return ab || ba
	}
	var tables []dualTable
	used := make([]int, len(duals)) // a dual's new index, once a table reads it
	for g := range duals {
		for h := g + 1; h < len(duals); h++ {
			x, y := duals[g].attrs, duals[h].attrs
			if requested(x[0], y[0]) && requested(x[0], y[1]) && requested(x[1], y[0]) && requested(x[1], y[1]) &&
				duals[g].size()*duals[h].size()*nc <= dualCells {
				tables = append(tables, dualTable{g: g, h: h})
				used[g], used[h] = 1, 1
			}
		}
	}
	if len(tables) == 0 {
		return
	}
	// Each pair plan is folded at most once, so the folds fit one
	// allocation.
	grouped := make([]bool, len(p.pairs))
	folds := make([]dualFold, 0, len(p.pairs))
	route := func(src int, attrs [3]int) {
		for i, a := range attrs {
			for j, b := range attrs {
				if pi, ok := p.pairIdx[[2]int{a, b}]; ok && !grouped[pi] {
					folds = append(folds, dualFold{pair: pi, src: src, i: i, j: j})
					grouped[pi] = true
				}
			}
		}
	}
	for ti := range tables {
		t := &tables[ti]
		g, h := &duals[t.g], &duals[t.h]
		route(0, [3]int{g.attrs[0], h.attrs[0], h.attrs[1]})
		route(1, [3]int{g.attrs[1], h.attrs[0], h.attrs[1]})
		t.folds, folds = folds[:len(folds):len(folds)], folds[len(folds):]
		p.dualWork = max(p.dualWork, (g.size()+g.sizes[0]+g.sizes[1])*h.size()*nc)
	}
	p.pairsByWidth[0] = slices.DeleteFunc(p.pairsByWidth[0], func(pi int) bool { return grouped[pi] })
	// Keep the duals some table reads, renumbered in order.
	for d := range duals {
		if used[d] != 0 {
			used[d] = len(p.duals)
			p.duals = append(p.duals, duals[d])
		}
	}
	for ti := range tables {
		tables[ti].g, tables[ti].h = used[tables[ti].g], used[tables[ti].h]
	}
	p.tables = tables
}

// extractAll materializes each distinct cube once from the counted
// scratch (duplicate requests share the pointer) and reports how many
// cubes were built.
func extractAll(ds *dataset.Dataset, nc int, reqs [][]int, plan *batchPlan) ([]*Cube, int) {
	out := make([]*Cube, len(reqs))
	pairCubes := make([]*Cube, len(plan.pairs))
	kCubes := make([]*Cube, len(plan.ks))
	oneCubes := make(map[int]*Cube)
	built := 0
	for i, attrs := range reqs {
		switch {
		case len(attrs) >= 3:
			ki := plan.kIdx[kKey(attrs)]
			if kCubes[ki] == nil {
				kCubes[ki] = extractK(ds, nc, &plan.ks[ki])
				built++
			}
			out[i] = kCubes[ki]
		case len(attrs) == 2:
			pi := plan.pairIdx[[2]int{attrs[0], attrs[1]}]
			if pairCubes[pi] == nil {
				pairCubes[pi] = extractPair(ds, nc, &plan.pairs[pi])
				built++
			}
			out[i] = pairCubes[pi]
		default:
			a := attrs[0]
			c, ok := oneCubes[a]
			if !ok {
				if pos, der := plan.derived[a]; der {
					c = extractDerivedOne(ds, nc, a, &plan.pairs[pos[0]], pos[1])
				} else {
					c = extractOne(ds, nc, &plan.ones[plan.oneIdx[a]])
				}
				oneCubes[a] = c
				built++
			}
			out[i] = c
		}
	}
	return out, built
}

// findPairFor locates a pair plan covering attribute a, returning its
// index and the dimension position a occupies, or {-1, -1}.
func findPairFor(pairs []pairPlan, a int) [2]int {
	for pi := range pairs {
		if pairs[pi].a == a {
			return [2]int{pi, 0}
		}
		if pairs[pi].b == a {
			return [2]int{pi, 1}
		}
	}
	return [2]int{-1, -1}
}

// scanAll runs the shared pass, split across GOMAXPROCS contiguous row
// shards when the dataset is large enough to amortize the per-shard
// scratch (counts are additive; shard partials merge by summation).
// A cancel stops every shard at its next block boundary; scanAll waits
// for all of them before returning ctx.Err().
func scanAll(ctx context.Context, classCol *dataset.Codes, nc int, plan *batchPlan, rows int) error {
	shards := runtime.GOMAXPROCS(0)
	if max := rows / batchShardRows; shards > max {
		shards = max
	}
	if shards <= 1 {
		return scanShard(ctx, classCol, nc, plan, 0, rows)
	}
	// Shard 0 scans into the plan's own scratch; each extra shard scans
	// into a private copy, merged after the pass.
	extra := plan.scratchCopies(shards - 1)
	var wg sync.WaitGroup
	per := (rows + shards - 1) / shards
	for s := 0; s < shards; s++ {
		lo := s * per
		hi := lo + per
		if hi > rows {
			hi = rows
		}
		sp := plan
		if s > 0 {
			sp = extra[s-1]
		}
		wg.Add(1)
		go func(sp *batchPlan, lo, hi int) {
			defer wg.Done()
			// A shard stops only on cancel, which ctx.Err() reports below.
			_ = scanShard(ctx, classCol, nc, sp, lo, hi)
		}(sp, lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	plan.addScratch(extra)
	return nil
}

// scanShard is scanRange over rows [lo, hi) at the class column's
// code width.
func scanShard(ctx context.Context, classCol *dataset.Codes, nc int, plan *batchPlan, lo, hi int) error {
	if classCol.IsWide() {
		return scanRange(ctx, classCol.Wide(), nc, plan, lo, hi)
	}
	return scanRange(ctx, classCol.Narrow(), nc, plan, lo, hi)
}

// scratchCopies returns n copies of the plan whose scratch arrays are
// fresh and zeroed, one per extra scan shard.
func (p *batchPlan) scratchCopies(n int) []*batchPlan {
	out := make([]*batchPlan, n)
	for s := range out {
		c := *p // the plan's layout is shared, its scratch is not
		c.pairs = append([]pairPlan(nil), p.pairs...)
		c.ones = append([]onePlan(nil), p.ones...)
		c.ks = append([]kPlan(nil), p.ks...)
		for i := range c.pairs {
			c.pairs[i].scratch = make([]int64, len(p.pairs[i].scratch))
		}
		for i := range c.ones {
			c.ones[i].scratch = make([]int64, len(p.ones[i].scratch))
		}
		for i := range c.ks {
			c.ks[i].scratch = make([]int64, len(p.ks[i].scratch))
		}
		out[s] = &c
	}
	return out
}

// addScratch sums the shard copies' scratch into the plan's own.
func (p *batchPlan) addScratch(copies []*batchPlan) {
	for _, c := range copies {
		for i := range p.pairs {
			AddCounts(p.pairs[i].scratch, c.pairs[i].scratch)
		}
		for i := range p.ones {
			AddCounts(p.ones[i].scratch, c.ones[i].scratch)
		}
		for i := range p.ks {
			AddCounts(p.ks[i].scratch, c.ks[i].scratch)
		}
	}
}

// scanBlockRows sizes the row blocks of the shared scan: small enough
// that a block's class and value columns stay cache-resident while
// every plan tallies it, large enough to amortize the per-plan loop
// setup. 2048 rows are 2 KiB per narrow column touched, 8 KiB per wide
// one.
const scanBlockRows = 2048

// scanRange is the shared scan's inner loop over rows [lo, hi),
// instantiated once per pass for the class column's code width: each
// row with a present class bumps exactly one cell per plan. The +1
// shift routes a missing value to slot 0 at either width (dataset.Code),
// so the loop has no per-plan branch; extraction drops (or
// marginalizes over) that slot. tallyDuals counts each dualChunkRows
// chunk into the dual tables; the other plans count it in blocks with
// the plan loop outside the row loop, so each plan's column/scratch
// pointers hoist out of the hot loop and the block's columns are
// revisited while still in cache — the row-outer form re-derefs every
// plan per row and thrashes between all the plans' columns. Pairs and
// 1-D plans are tallied by width group, so each plan's loop is
// specialized to its columns' widths, picked at planning.
func scanRange[C dataset.Code](ctx context.Context, classCol []C, nc int, plan *batchPlan, lo, hi int) error {
	pairs, ones, ks := plan.pairs, plan.ones, plan.ks
	codes := make([]uint8, len(plan.duals)*min(hi-lo, dualChunkRows))
	work := make([]uint32, plan.dualWork)
	for clo := lo; clo < hi; clo += dualChunkRows {
		chi := min(clo+dualChunkRows, hi)
		if err := tallyDuals(ctx, classCol[clo:chi], nc, plan, codes, work, clo); err != nil {
			return err
		}
		for blo := clo; blo < chi; blo += scanBlockRows {
			if err := ctx.Err(); err != nil {
				return err
			}
			bhi := min(blo+scanBlockRows, chi)
			cls := classCol[blo:bhi]
			for _, i := range plan.pairsByWidth[0] {
				p := &pairs[i]
				tallyPair(p.colA.Narrow()[blo:bhi], p.colB.Narrow()[blo:bhi], cls, p.scratch, p.strideA, nc)
			}
			for _, i := range plan.pairsByWidth[1] {
				p := &pairs[i]
				tallyPair(p.colA.Narrow()[blo:bhi], p.colB.Wide()[blo:bhi], cls, p.scratch, p.strideA, nc)
			}
			for _, i := range plan.pairsByWidth[2] {
				p := &pairs[i]
				tallyPair(p.colA.Wide()[blo:bhi], p.colB.Narrow()[blo:bhi], cls, p.scratch, p.strideA, nc)
			}
			for _, i := range plan.pairsByWidth[3] {
				p := &pairs[i]
				tallyPair(p.colA.Wide()[blo:bhi], p.colB.Wide()[blo:bhi], cls, p.scratch, p.strideA, nc)
			}
			for _, i := range plan.onesByWidth[0] {
				o := &ones[i]
				tallyOne(o.col.Narrow()[blo:bhi], cls, o.scratch, nc)
			}
			for _, i := range plan.onesByWidth[1] {
				o := &ones[i]
				tallyOne(o.col.Wide()[blo:bhi], cls, o.scratch, nc)
			}
			for i := range ks {
				kp := &ks[i]
				scratch, strides := kp.scratch, kp.strides
				for r, cl := range cls {
					if cl+1 == 0 {
						continue
					}
					idx := int(cl)
					for d := range kp.cols {
						idx += (int(kp.cols[d].At(blo+r)) + 1) * strides[d]
					}
					scratch[idx]++
				}
			}
		}
	}
	return ctx.Err()
}

// tallyDuals counts one chunk of rows, starting at row lo, into every
// dual table: it writes each dual's codes for the chunk into codes once,
// then counts the tables one at a time into the one reused table at the
// head of work.
func tallyDuals[C dataset.Code](ctx context.Context, cls []C, nc int, plan *batchPlan, codes []uint8, work []uint32, lo int) error {
	n := len(cls)
	for d := range plan.duals {
		if err := ctx.Err(); err != nil {
			return err
		}
		dl := &plan.duals[d]
		x, y, u, m := dl.cols[0][lo:lo+n], dl.cols[1][lo:lo+n], codes[d*n:(d+1)*n], uint8(dl.sizes[1])
		for r, v := range x {
			u[r] = (v+1)*m + y[r]
		}
	}
	for i := range plan.tables {
		if err := ctx.Err(); err != nil {
			return err
		}
		countDual(cls, nc, plan, &plan.tables[i], codes, work)
	}
	return nil
}

// tallyPair bumps one cell per row of a block with a present class: a
// pair plan's scratch cell, or a dual table's.
func tallyPair[A, B, C dataset.Code, N uint32 | int64](colA []A, colB []B, cls []C, scratch []N, strideA, nc int) {
	colA, colB = colA[:len(cls)], colB[:len(cls)]
	for r, cl := range cls {
		if cl+1 == 0 {
			continue
		}
		scratch[int(colA[r]+1)*strideA+int(colB[r]+1)*nc+int(cl)]++
	}
}

// countDual tallies one chunk into dual table t, the head of work, and
// folds it. Out of tallyDuals' loop, and with the fold out of line, the
// row loop keeps its counter in a register.
func countDual[C dataset.Code](cls []C, nc int, p *batchPlan, t *dualTable, codes []uint8, work []uint32) {
	n, sh := len(cls), p.duals[t.h].size()
	tallyPair(codes[t.g*n:][:n], codes[t.h*n:][:n], cls, work, sh*nc, nc)
	p.foldDual(t, work, nc)
}

// foldDual adds dual table t, the head of work, into its pairs' scratch
// in two stages: the table summed over g's second attribute and over
// g's first (marginals 0 and 1, each a run of row adds, kept in work
// after the table), then every pair across the duals, and h's inner
// pair, from those small marginals. A row with a present pair and class
// is counted in the table wherever its other values fell, so summing a
// dimension over all its slots, missing slot included, gives what
// tallyPair would have counted. work is left zeroed.
func (p *batchPlan) foldDual(t *dualTable, work []uint32, nc int) {
	g, h := &p.duals[t.g], &p.duals[t.h]
	sh := h.size()
	table, x := work[:g.size()*sh*nc], work[g.size()*sh*nc:][:g.sizes[0]*sh*nc]
	y := work[(g.size()+g.sizes[0])*sh*nc:][:g.sizes[1]*sh*nc]
	whole := [3]int{g.sizes[0], g.sizes[1], sh}
	fold3(x, table, whole, [3]int{sh * nc, 0, nc}, nc)
	fold3(y, table, whole, [3]int{0, sh * nc, nc}, nc)
	srcs := [2][]uint32{x, y}
	dims := [2][3]int{{g.sizes[0], h.sizes[0], h.sizes[1]}, {g.sizes[1], h.sizes[0], h.sizes[1]}}
	for _, f := range t.folds {
		pp := &p.pairs[f.pair]
		var st [3]int
		st[f.i], st[f.j] = pp.strideA, nc
		fold3(pp.scratch, srcs[f.src], dims[f.src], st, nc)
	}
	clear(work[:len(table)+len(x)+len(y)])
}

// fold3 adds src, a dims[0] × dims[1] × dims[2] × nc array, into dst
// with strides st for the three dimensions; a dimension whose stride is
// 0 is summed. Each cell widens to dst's type as it is added. Where the
// third dimension is contiguous in dst (stride nc), each of its runs is
// one loop of adds.
func fold3[N uint32 | int64](dst []N, src []uint32, dims, st [3]int, nc int) {
	run := dims[2] * nc
	for x := 0; x < dims[0]; x++ {
		for y := 0; y < dims[1]; y++ {
			off := x*st[0] + y*st[1]
			s := src[:run]
			src = src[run:]
			if st[2] == nc {
				d := dst[off:][:run]
				for k, n := range s {
					d[k] += N(n)
				}
				continue
			}
			for z := 0; z < dims[2]; z++ {
				d := dst[off+z*st[2]:][:nc]
				for c, n := range s[z*nc:][:nc] {
					d[c] += N(n)
				}
			}
		}
	}
}

// tallyOne bumps one 1-D scratch cell per row of a block with a
// present class.
func tallyOne[B, C dataset.Code](col []B, cls []C, scratch []int64, nc int) {
	col = col[:len(cls)]
	for r, cl := range cls {
		if cl+1 == 0 {
			continue
		}
		scratch[int(col[r]+1)*nc+int(cl)]++
	}
}

// newCubeHeader builds an empty cube over attrs: one slot per
// dictionary code in each condition dimension, plus the class. Each
// slice is allocated once at its length (attrIdx and dims share one
// array); the cells are the cube's own allocation, so an evicted cube
// pins nothing else.
func newCubeHeader(ds *dataset.Dataset, nc int, attrs ...int) *Cube {
	k := len(attrs)
	ints := make([]int, 2*k)
	c := &Cube{
		attrIdx:    ints[:k:k],
		dims:       ints[k:],
		attrNames:  make([]string, k),
		dicts:      make([]*dataset.Dictionary, k),
		classDict:  ds.ClassDict(),
		numClasses: nc,
	}
	copy(c.attrIdx, attrs)
	size := nc
	for i, a := range attrs {
		c.dims[i] = cubeDim(ds, a)
		c.attrNames[i] = ds.Attr(a).Name
		c.dicts[i] = ds.Column(a).Dict
		size *= c.dims[i]
	}
	c.counts = make([]int64, size)
	return c
}

// extractPair copies the present-value block of a pair plan's scratch
// into an exact cube: slot 0 of either dimension (rows where that value
// was missing) is dropped, since such rows are not counted.
func extractPair(ds *dataset.Dataset, nc int, p *pairPlan) *Cube {
	c := newCubeHeader(ds, nc, p.a, p.b)
	blk := p.dimB * nc
	for va := 0; va < p.dimA; va++ {
		src := ((va+1)*(p.dimB+1) + 1) * nc
		copy(c.counts[va*blk:(va+1)*blk], p.scratch[src:src+blk])
	}
	for _, n := range c.counts {
		c.total += n
	}
	return c
}

// extractOne copies a dedicated 1-D plan's present-value block.
func extractOne(ds *dataset.Dataset, nc int, o *onePlan) *Cube {
	c := newCubeHeader(ds, nc, o.a)
	copy(c.counts, o.scratch[nc:(o.dim+1)*nc])
	for _, n := range c.counts {
		c.total += n
	}
	return c
}

// extractK copies the present-value block of a k-D plan's scratch into
// an exact cube: slot 0 of every condition dimension (rows where that
// value was missing) is dropped, since such rows are not counted.
// The innermost dimension's present block is contiguous in both
// layouts, so the copy walks an odometer over the outer dimensions and
// moves dims[k-1]×nc cells at a time.
func extractK(ds *dataset.Dataset, nc int, p *kPlan) *Cube {
	c := newCubeHeader(ds, nc, p.attrs...)
	k := len(p.dims)
	blk := p.dims[k-1] * nc
	idx := make([]int, k-1)
	dst := 0
	for {
		src := p.strides[k-1] // skip slot 0 of the innermost dimension
		for i := 0; i < k-1; i++ {
			src += (idx[i] + 1) * p.strides[i]
		}
		copy(c.counts[dst:dst+blk], p.scratch[src:src+blk])
		dst += blk
		i := k - 2
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < p.dims[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	for _, n := range c.counts {
		c.total += n
	}
	return c
}

// extractDerivedOne reproduces attribute a's 1-D cube from a pair
// plan's scratch by marginalizing the partner dimension across *all*
// its slots — missing slot included, because a row with a present a and
// class is counted in the scratch wherever its partner value fell, and
// a 1-D cube keeps exactly those rows regardless of the partner.
func extractDerivedOne(ds *dataset.Dataset, nc int, a int, p *pairPlan, pos int) *Cube {
	c := newCubeHeader(ds, nc, a)
	if pos == 0 {
		for va := 0; va < p.dimA; va++ {
			dst := c.counts[va*nc : (va+1)*nc]
			base := (va + 1) * p.strideA
			for sb := 0; sb <= p.dimB; sb++ {
				AddCounts(dst, p.scratch[base+sb*nc:base+(sb+1)*nc])
			}
		}
	} else {
		for vb := 0; vb < p.dimB; vb++ {
			dst := c.counts[vb*nc : (vb+1)*nc]
			for sa := 0; sa <= p.dimA; sa++ {
				off := sa*p.strideA + (vb+1)*nc
				AddCounts(dst, p.scratch[off:off+nc])
			}
		}
	}
	for _, n := range c.counts {
		c.total += n
	}
	return c
}
