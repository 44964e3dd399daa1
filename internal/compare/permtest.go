package compare

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"opmap/internal/car"
	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
)

// Permutation test for the interestingness measure. The paper justifies
// M's extremes analytically (Section IV.A) and guards individual
// confidences with intervals (IV.B), but offers no significance level
// for a whole attribute's M. The permutation test supplies one: shuffle
// the records between D1 and D2 (keeping the sub-population sizes),
// recompute M each time, and report how often chance alone reaches the
// observed value. A planted attribute earns a tiny p-value; a noise
// attribute does not — useful when deciding how deep into the ranking
// to send the engineers.

// PermutationResult summarizes a test.
type PermutationResult struct {
	Attr     int
	AttrName string

	Observed float64 // M on the real split
	// PValue is (1 + #{permuted M ≥ observed}) / (1 + rounds), the
	// add-one estimator that never returns 0.
	PValue float64
	// NullMean and NullQ95 describe the permutation distribution.
	NullMean float64
	NullQ95  float64
	Rounds   int // rounds that produced a valid M (cf1 > 0)
}

// PermutationTest runs a permutation test of candidate attribute attr
// for the comparison in over the raw dataset. rounds defaults to 200
// when ≤ 0. The test scans the data (cube cells cannot be permuted), so
// its cost scales with |D1|+|D2| per round.
func PermutationTest(ds *dataset.Dataset, in Input, attr int, rounds int, seed int64, opts Options) (PermutationResult, error) {
	return PermutationTestContext(context.Background(), ds, in, attr, rounds, seed, opts)
}

// PermutationTestContext is PermutationTest under a context, checked
// once per row block of its two passes (the observed scan and the
// pool's walk) and once per permutation round. It is strict:
// cancellation mid-test returns ctx.Err() (a truncated null
// distribution would bias the p-value, so there is no partial mode).
func PermutationTestContext(ctx context.Context, ds *dataset.Dataset, in Input, attr int, rounds int, seed int64, opts Options) (PermutationResult, error) {
	defer obsv.Stage(obsv.StagePermutationTest)()
	if attr < 0 || attr >= ds.NumAttrs() || attr == ds.ClassIndex() || attr == in.Attr {
		return PermutationResult{}, fmt.Errorf("compare: invalid candidate attribute %d", attr)
	}
	if rounds <= 0 {
		rounds = 200
	}

	// Observed score via the standard scan restricted to this attribute.
	obs, err := Scan(ctx, ds, nil, in, withAttrs(opts, attr))
	if err != nil {
		return PermutationResult{}, err
	}
	score, _, ok := obs.Find(ds.Attr(attr).Name)
	if !ok {
		return PermutationResult{}, fmt.Errorf("compare: attribute %q produced no score", ds.Attr(attr).Name)
	}

	// Collect the member rows of both sub-populations, with their
	// candidate-attribute value and class membership, in one walk over
	// the rows the observed scan counted.
	pool, n1, err := collectPool(ctx, ds, in, attr, obs.Swapped)
	if err != nil {
		return PermutationResult{}, err
	}
	if n1 == 0 || n1 == len(pool) {
		return PermutationResult{}, fmt.Errorf("compare: degenerate sub-populations")
	}

	card := ds.Cardinality(attr)
	rng := rand.New(rand.NewSource(seed))
	var null []float64
	exceed := 0
	for round := 0; round < rounds; round++ {
		if err := faultinject.Check(ctx, faultinject.SitePermRound); err != nil {
			return PermutationResult{}, err
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		m, valid := poolScore(pool, n1, card, opts)
		if !valid {
			continue
		}
		null = append(null, m)
		if m >= score.Score {
			exceed++
		}
	}
	if len(null) == 0 {
		return PermutationResult{}, fmt.Errorf("compare: no valid permutation rounds (class too rare)")
	}
	res := PermutationResult{
		Attr:     attr,
		AttrName: ds.Attr(attr).Name,
		Observed: score.Score,
		PValue:   float64(1+exceed) / float64(1+len(null)),
		Rounds:   len(null),
	}
	res.NullMean, res.NullQ95 = summarizeNull(null)
	return res, nil
}

// member is one row of a permutation pool: its candidate-attribute
// value and whether the row belongs to the target class.
type member struct {
	value   int32
	inClass bool
}

// collectPool gathers the member rows of both sub-populations in row
// order, walking the rows Scan counts (rulecube.SelectRows); n1 counts
// the first sub-population's rows. A row with a missing class is no
// member, as the observed rules and per-value counts skip it; a row
// with a missing candidate value is one (poolScore counts it in its
// side's total). The permutation rounds shuffle the pool and
// re-partition it at n1. It polls ctx once per row block.
func collectPool(ctx context.Context, ds *dataset.Dataset, in Input, attr int, swapped bool) (pool []member, n1 int, err error) {
	v1, v2 := in.V1, in.V2
	// Match the observed orientation: the preamble may have swapped.
	if swapped {
		v1, v2 = v2, v1
	}
	w := poolWalk{cand: &ds.Column(attr).Codes, nc: int32(ds.NumClasses()), class: in.Class}
	_, err = rulecube.SelectRows(ctx, ds, in.Attr, v1, v2, nil, w.add)
	return w.pool, w.n1, err
}

// poolWalk gathers a permutation pool from the selected rows of each
// block: a member per row, in D1 when its side is 0.
type poolWalk struct {
	cand      *dataset.Codes
	nc, class int32
	pool      []member
	n1        int
}

func (w *poolWalk) add(lo int, sel, off []int32) {
	for j, r := range sel {
		w.pool = append(w.pool, member{w.cand.At(lo + int(r)), off[j]%w.nc == w.class})
		if off[j] < w.nc {
			w.n1++
		}
	}
}

// summarizeNull reduces the null distribution to its mean and 95th
// percentile. Sorts in place.
func summarizeNull(null []float64) (mean, q95 float64) {
	var sum float64
	for _, m := range null {
		sum += m
	}
	sort.Float64s(null)
	return sum / float64(len(null)), null[int(0.95*float64(len(null)-1))]
}

// poolScore computes M for the pool split at n1, its first n1 members
// being D1. Every member counts in its side's rule, as every row with a
// present class counts in the observed rules; a member with a missing
// candidate value counts in no value's row of the table.
func poolScore(pool []member, n1, card int, opts Options) (float64, bool) {
	tab := newValueTable(card)
	var n, c [2]int64
	for i, m := range pool {
		side, tn, tc := 0, tab.n1, tab.c1
		if i >= n1 {
			side, tn, tc = 1, tab.n2, tab.c2
		}
		n[side]++
		if m.inClass {
			c[side]++
		}
		if m.value < 0 {
			continue
		}
		tn[m.value]++
		if m.inClass {
			tc[m.value]++
		}
	}
	return permScore(tab, n[0], c[0], n[1], c[1], opts)
}

// permScore computes M for a permuted table through the comparator's
// preamble. MinRuleSupport is left to the observed comparison, which
// applied it to the whole sub-populations.
func permScore(tab valueTable, t1n, t1c, t2n, t2c int64, opts Options) (float64, bool) {
	opts.MinRuleSupport = 0
	comp, err := orient(car.Rule{CondCount: t1n, SupCount: t1c}, car.Rule{CondCount: t2n, SupCount: t2c}, opts)
	if err != nil {
		return 0, false
	}
	if comp.result.Swapped {
		tab = tab.flip()
	}
	var s AttrScore
	comp.score(&s, 0, "perm", nil, &tab)
	return s.Score, true
}

// withAttrs restricts opts to a single candidate attribute.
func withAttrs(opts Options, attr int) Options {
	opts.Attrs = []int{attr}
	return opts
}
