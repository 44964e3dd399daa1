package rulecube

import (
	"context"
	"fmt"
	"math"
	mathbits "math/bits"
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

// tripleCells bounds a triple plan's table: 2,816 uint32 cells, 11 KiB.
// On a 48 KiB-L1d Xeon a triple table beat tallying its three pairs
// alone clearly up to 2,662 cells, barely at 3,000 and not from 3,456
// cells on (DESIGN.md §14, "Triple tables").
const tripleCells = 2816

// triplePlan counts three narrow attributes in one table of
// (dims[0]+1) × (dims[1]+1) × (dims[2]+1) × numClasses cells, with slot
// 0 of every dimension catching missing values as in a pairPlan: each
// row bumps one cell, where the three pairs' plans would bump one each.
// foldTriples sums the table into the scratch of every requested pair
// plan over two of the three attributes at the end of a shard's scan.
// A cell counts rows of one shard, so uint32 cells cannot wrap while the
// dataset has at most math.MaxUint32 rows; groupTriples forms no triple
// over a larger one.
type triplePlan struct {
	cols    [3]dataset.Codes
	dims    [3]int
	strides [2]int // strides of dimensions 0 and 1; dimension 2's is numClasses
	folds   []tripleFold
	table   []uint32
}

// tripleFold routes a triple table into one pair plan: the pair's first
// attribute is the triple's dimension i, its second dimension j.
type tripleFold struct {
	pair, i, j int
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
// underlying cube. Requested pairs that close a triangle {x, y, z} of
// narrow attributes bump one cell of a triple table per row instead of
// three pair cells, and each shard folds the table into the three pairs'
// scratch after its scan (groupTriples). The scan parallelizes across
// GOMAXPROCS row shards when the dataset is large enough (counts are
// additive, so shard partials merge by summation). Every shard polls
// ctx once per scanBlockRows-row block, so a cancel mid-scan returns
// ctx.Err() within one block's work and leaves no goroutine behind.
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
// its accumulator. triples counts narrow pairs three at a time (every
// pair plan keeps its scratch, which the triples fold into), and
// pairsByWidth lists the pair plans no triple covers. pairsByWidth and
// onesByWidth group the plans by their columns' code widths (wideBit),
// so the scan picks each tally loop once per pass.
type batchPlan struct {
	pairs        []pairPlan
	ones         []onePlan
	ks           []kPlan
	triples      []triplePlan
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
// into triple plans where groupTriples finds them, and k ≥ 3 requests
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
	p.groupTriples(ds, nc)
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

// groupTriples packs the narrow pair plans into triple plans: triangles
// {x, y, z} of the requested-pair graph (a pair requested in either
// order, or both, is one edge) whose table holds at most tripleCells
// cells, each edge in at most one triangle. It is greedy: the attribute
// with the most ungrouped edges takes the fitting triangle through its
// lowest-degree neighbour and their lowest-degree common neighbour
// (taking the highest-degree ones instead grouped 2,700 of 3,321 store
// pairs at the benchmark's schema, this 3,180); an attribute with no
// such triangle left is dropped. Fewer than three narrow pairs (a
// one-cube build) skip it; a sweep's star of pairs around its split
// attribute has no triangle. A dataset of more than math.MaxUint32
// rows, which a triple's uint32 cells could not count, forms none. The
// triples' pairs leave pairsByWidth[0]; their tables are cut from one
// allocation.
func (p *batchPlan) groupTriples(ds *dataset.Dataset, nc int) {
	narrow := p.pairsByWidth[0]
	if len(narrow) < 3 || uint64(ds.NumRows()) > math.MaxUint32 {
		return
	}
	// Vertices are the attributes of narrow pairs, numbered in order of
	// first appearance; adj is their n × n adjacency matrix.
	vid := make(map[int]int)
	var attrs []int
	for _, pi := range narrow {
		for _, a := range [2]int{p.pairs[pi].a, p.pairs[pi].b} {
			if _, ok := vid[a]; !ok {
				vid[a] = len(attrs)
				attrs = append(attrs, a)
			}
		}
	}
	n, words := len(attrs), (len(attrs)+63)/64
	adj := make([]uint64, n*words) // row u's bit v: edge {u, v} ungrouped
	row := func(u int) []uint64 { return adj[u*words : (u+1)*words] }
	cut := func(u, v int) { row(u)[v/64] &^= 1 << (v % 64) }
	deg := make([]int, n)
	for _, pi := range narrow {
		u, v := vid[p.pairs[pi].a], vid[p.pairs[pi].b]
		if row(u)[v/64]&(1<<(v%64)) == 0 {
			row(u)[v/64] |= 1 << (v % 64)
			row(v)[u/64] |= 1 << (u % 64)
			deg[u]++
			deg[v]++
		}
	}
	size := make([]int, n)
	for u, a := range attrs {
		size[u] = cubeDim(ds, a) + 1
	}
	// minNeighbour returns the lowest-degree vertex in set whose size
	// fits a table over it and fixed cells, or -1.
	minNeighbour := func(set []uint64, fixed int) int {
		best := -1
		for wi, bits := range set {
			for ; bits != 0; bits &= bits - 1 {
				w := wi*64 + mathbits.TrailingZeros64(bits)
				if fixed*size[w] <= tripleCells && (best < 0 || deg[w] < deg[best]) {
					best = w
				}
			}
		}
		return best
	}
	var tris [][3]int
	cand, common := make([]uint64, words), make([]uint64, words)
	for {
		x := -1
		for u := range deg {
			if deg[u] >= 2 && (x < 0 || deg[u] > deg[x]) {
				x = u
			}
		}
		if x < 0 {
			break
		}
		// y is x's lowest-degree neighbour that closes a fitting
		// triangle, z the lowest-degree vertex that closes it.
		y, z := -1, -1
		copy(cand, row(x))
		for y < 0 || z < 0 {
			if y = minNeighbour(cand, size[x]*nc); y < 0 {
				break
			}
			for i := range common {
				common[i] = row(x)[i] & row(y)[i]
			}
			if z = minNeighbour(common, size[x]*size[y]*nc); z < 0 {
				cand[y/64] &^= 1 << (y % 64)
			}
		}
		if y < 0 {
			// No triangle through x fits; x's edges stay pairs.
			deg[x] = 0
			continue
		}
		for _, e := range [3][2]int{{x, y}, {x, z}, {y, z}} {
			cut(e[0], e[1])
			cut(e[1], e[0])
			deg[e[0]]--
			deg[e[1]]--
		}
		tris = append(tris, [3]int{x, y, z})
	}
	if len(tris) == 0 {
		return
	}
	grouped := make([]bool, len(p.pairs))
	p.triples = make([]triplePlan, len(tris))
	folds := make([]tripleFold, 0, 6*len(tris)) // at most both orders of three pairs
	for ti, tri := range tris {
		t := &p.triples[ti]
		for d, u := range tri {
			t.cols[d] = ds.Column(attrs[u]).Codes
			t.dims[d] = size[u] - 1
		}
		t.strides = [2]int{size[tri[1]] * size[tri[2]] * nc, size[tri[2]] * nc}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				pi, ok := p.pairIdx[[2]int{attrs[tri[i]], attrs[tri[j]]}]
				if i != j && ok {
					folds = append(folds, tripleFold{pair: pi, i: i, j: j})
					grouped[pi] = true
				}
			}
		}
		t.folds, folds = folds[:len(folds):len(folds)], folds[len(folds):]
	}
	p.pairsByWidth[0] = slices.DeleteFunc(narrow, func(pi int) bool { return grouped[pi] })
	p.cutTripleTables()
}

// cutTripleTables gives every triple plan a zeroed table, all cut from
// one allocation.
func (p *batchPlan) cutTripleTables() {
	total := 0
	for i := range p.triples {
		total += p.triples[i].cells()
	}
	slab := make([]uint32, total)
	for i := range p.triples {
		t := &p.triples[i]
		n := t.cells()
		t.table, slab = slab[:n:n], slab[n:]
	}
}

// cells is the size of t's table.
func (t *triplePlan) cells() int { return t.strides[0] * (t.dims[0] + 1) }

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
		c := &batchPlan{
			pairs:        append([]pairPlan(nil), p.pairs...),
			ones:         append([]onePlan(nil), p.ones...),
			ks:           append([]kPlan(nil), p.ks...),
			triples:      append([]triplePlan(nil), p.triples...),
			pairsByWidth: p.pairsByWidth,
			onesByWidth:  p.onesByWidth,
		}
		c.cutTripleTables()
		for i := range c.pairs {
			c.pairs[i].scratch = make([]int64, len(p.pairs[i].scratch))
		}
		for i := range c.ones {
			c.ones[i].scratch = make([]int64, len(p.ones[i].scratch))
		}
		for i := range c.ks {
			c.ks[i].scratch = make([]int64, len(p.ks[i].scratch))
		}
		out[s] = c
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
// marginalizes over) that slot. Rows are processed in blocks with the
// plan loop outside the row loop, so each plan's column/scratch
// pointers hoist out of the hot loop and the block's columns are
// revisited while still in cache — the row-outer form re-derefs every
// plan per row and thrashes between all the plans' columns. Pairs and
// 1-D plans are tallied by width group, so each plan's loop is
// specialized to its columns' widths, picked at planning; triple plans
// are all narrow. ctx is polled once per block. After the last block
// the triple tables are folded into their pairs' scratch, so each shard
// hands addScratch and extraction plain pair scratch.
func scanRange[C dataset.Code](ctx context.Context, classCol []C, nc int, plan *batchPlan, lo, hi int) error {
	pairs, ones, ks := plan.pairs, plan.ones, plan.ks
	for blo := lo; blo < hi; blo += scanBlockRows {
		if err := ctx.Err(); err != nil {
			return err
		}
		bhi := min(blo+scanBlockRows, hi)
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
		for i := range plan.triples {
			t := &plan.triples[i]
			tallyTriple(t.cols[0].Narrow()[blo:bhi], t.cols[1].Narrow()[blo:bhi], t.cols[2].Narrow()[blo:bhi], cls, t.table, t.strides, nc)
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
	plan.foldTriples(nc)
	return ctx.Err()
}

// tallyPair bumps one pair-scratch cell per row of a block with a
// present class.
func tallyPair[A, B, C dataset.Code](colA []A, colB []B, cls []C, scratch []int64, strideA, nc int) {
	colA, colB = colA[:len(cls)], colB[:len(cls)]
	for r, cl := range cls {
		if cl+1 == 0 {
			continue
		}
		scratch[int(colA[r]+1)*strideA+int(colB[r]+1)*nc+int(cl)]++
	}
}

// tallyTriple bumps one triple-table cell per row of a block with a
// present class.
func tallyTriple[C dataset.Code](x, y, z []uint8, cls []C, table []uint32, strides [2]int, nc int) {
	x, y, z = x[:len(cls)], y[:len(cls)], z[:len(cls)]
	for r, cl := range cls {
		if cl+1 == 0 {
			continue
		}
		table[int(x[r]+1)*strides[0]+int(y[r]+1)*strides[1]+int(z[r]+1)*nc+int(cl)]++
	}
}

// foldTriples adds each triple table into its pairs' scratch. A pair
// over the triple's dimensions i and j gets the table summed over the
// third dimension, all its slots included (a row with a present pair and
// class is counted wherever its third value fell), so the scratch holds
// what tallyPair would have counted. The third dimension's stride into
// the pair scratch is 0, which does the summing; each cell widens to
// int64 as it is added.
func (p *batchPlan) foldTriples(nc int) {
	for _, t := range p.triples {
		for _, f := range t.folds {
			pp := &p.pairs[f.pair]
			var st [3]int
			st[f.i], st[f.j] = pp.strideA, nc
			src := t.table
			for x := 0; x <= t.dims[0]; x++ {
				for y := 0; y <= t.dims[1]; y++ {
					for z := 0; z <= t.dims[2]; z++ {
						dst := pp.scratch[x*st[0]+y*st[1]+z*st[2]:][:nc]
						for c, n := range src[:nc] {
							dst[c] += int64(n)
						}
						src = src[nc:]
					}
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
