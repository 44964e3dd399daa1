package compare

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests of the interestingness measure's mathematical
// invariants (Section IV.A), all with CI disabled so the raw Eq. 1–3
// algebra is under test.

// randomTable draws a random but valid per-value contingency table with
// a nonzero class rate on both sides.
func randomTable(rng *rand.Rand, card int) (n1, c1, n2, c2 []int64) {
	n1 = make([]int64, card)
	c1 = make([]int64, card)
	n2 = make([]int64, card)
	c2 = make([]int64, card)
	for k := 0; k < card; k++ {
		n1[k] = int64(rng.Intn(5000) + 100)
		n2[k] = int64(rng.Intn(5000) + 100)
		c1[k] = int64(rng.Intn(int(n1[k]/4) + 1))
		c2[k] = int64(rng.Intn(int(n2[k]/4) + 1))
	}
	// Guarantee nonzero totals on both sides.
	c1[0]++
	c2[0]++
	return
}

// TestMeasureNonNegative: M ≥ 0 always (Eq. 2 clips negative F).
func TestMeasureNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n1, c1, n2, c2 := randomTable(rng, 2+rng.Intn(6))
		score, res, err := CompareValues("a", nil, n1, c1, n2, c2, noCI)
		if err != nil {
			t.Fatal(err)
		}
		if score.Score < 0 {
			t.Fatalf("trial %d: M = %v < 0", trial, score.Score)
		}
		for _, d := range details(&res, score) {
			if d.W < 0 {
				t.Fatalf("trial %d: W = %v < 0", trial, d.W)
			}
		}
	}
}

// TestMeasurePermutationInvariant: shuffling the value order leaves M
// unchanged (it is a sum over values).
func TestMeasurePermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		card := 3 + rng.Intn(5)
		n1, c1, n2, c2 := randomTable(rng, card)
		base, _, err := CompareValues("a", nil, n1, c1, n2, c2, noCI)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(card)
		pn1 := make([]int64, card)
		pc1 := make([]int64, card)
		pn2 := make([]int64, card)
		pc2 := make([]int64, card)
		for i, p := range perm {
			pn1[i], pc1[i], pn2[i], pc2[i] = n1[p], c1[p], n2[p], c2[p]
		}
		shuffled, _, err := CompareValues("a", nil, pn1, pc1, pn2, pc2, noCI)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(base.Score-shuffled.Score) > 1e-6*math.Max(1, base.Score) {
			t.Fatalf("trial %d: M changed under permutation: %v vs %v", trial, base.Score, shuffled.Score)
		}
	}
}

// TestMeasureCountScaling: multiplying every count by a constant k
// multiplies M by exactly k (confidences are ratios; W scales with N_2k).
func TestMeasureCountScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		card := 2 + rng.Intn(4)
		n1, c1, n2, c2 := randomTable(rng, card)
		k := int64(2 + rng.Intn(5))
		scale := func(xs []int64) []int64 {
			out := make([]int64, len(xs))
			for i, x := range xs {
				out[i] = x * k
			}
			return out
		}
		base, _, err := CompareValues("a", nil, n1, c1, n2, c2, noCI)
		if err != nil {
			t.Fatal(err)
		}
		scaled, _, err := CompareValues("a", nil, scale(n1), scale(c1), scale(n2), scale(c2), noCI)
		if err != nil {
			t.Fatal(err)
		}
		want := base.Score * float64(k)
		if math.Abs(scaled.Score-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("trial %d: scaling by %d: M %v, want %v", trial, k, scaled.Score, want)
		}
		// NormScore, by contrast, is scale-invariant.
		if math.Abs(scaled.NormScore-base.NormScore) > 1e-9 {
			t.Fatalf("trial %d: NormScore changed under count scaling: %v vs %v",
				trial, base.NormScore, scaled.NormScore)
		}
	}
}

// TestMeasureZeroWhenProportional: for any base rates and any value
// distribution, making cf_2k = ratio·cf_1k for every k yields M = 0.
func TestMeasureZeroWhenProportional(t *testing.T) {
	f := func(seeds [4]uint16) bool {
		rng := rand.New(rand.NewSource(int64(seeds[0]) + int64(seeds[1])<<16))
		card := 2 + rng.Intn(4)
		n := make([]int64, card)
		c1 := make([]int64, card)
		c2 := make([]int64, card)
		for k := 0; k < card; k++ {
			n[k] = 10000
			base := int64(rng.Intn(200) + 50) // cf1k in [0.5%, 2.5%]
			c1[k] = base
			c2[k] = base * 2 // cf2k = 2·cf1k everywhere ⇒ ratio exactly 2
		}
		score, res, err := CompareValues("a", nil, n, c1, n, c2, noCI)
		if err != nil {
			return false
		}
		return math.Abs(res.Ratio-2) < 1e-9 && score.Score < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMeasureMonotoneInConcentration: moving class records of D2 from a
// low-cf1 value into an already-excess value increases M (concentration
// is more interesting, the Fig. 4(B) intuition).
func TestMeasureMonotoneInConcentration(t *testing.T) {
	n1 := []int64{10000, 10000}
	c1 := []int64{200, 200} // flat 2%
	n2 := []int64{10000, 10000}
	for extra := int64(0); extra <= 200; extra += 50 {
		// Keep D2's total class count fixed at 800: shift `extra` drops
		// from value 1 into value 0.
		c2a := []int64{400 + extra, 400 - extra}
		a, _, err := CompareValues("a", nil, n1, c1, n2, c2a, noCI)
		if err != nil {
			t.Fatal(err)
		}
		c2b := []int64{400 + extra + 50, 400 - extra - 50}
		b, _, err := CompareValues("a", nil, n1, c1, n2, c2b, noCI)
		if err != nil {
			t.Fatal(err)
		}
		if b.Score <= a.Score {
			t.Fatalf("extra=%d: concentrating increased M from %v to %v (should grow)", extra, a.Score, b.Score)
		}
	}
}

// TestCINeverIncreasesContribution: for every value, the CI-adjusted W
// is at most the raw W (rcf2 ≤ cf2 and rcf1 ≥ cf1 ⇒ F shrinks).
func TestCINeverIncreasesContribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		card := 2 + rng.Intn(5)
		n1, c1, n2, c2 := randomTable(rng, card)
		raw, rawRes, err := CompareValues("a", nil, n1, c1, n2, c2, noCI)
		if err != nil {
			t.Fatal(err)
		}
		adj, adjRes, err := CompareValues("a", nil, n1, c1, n2, c2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if adj.Score > raw.Score+1e-9 {
			t.Fatalf("trial %d: CI increased M: %v > %v", trial, adj.Score, raw.Score)
		}
		for k := range raw.Values {
			if adjRes.Detail(adj, k).W > rawRes.Detail(raw, k).W+1e-9 {
				t.Fatalf("trial %d value %d: CI increased W", trial, k)
			}
		}
	}
}

// TestOrientationInvariance: swapping which sub-population is passed
// first never changes the measure (orientation is normalized).
func TestOrientationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		card := 2 + rng.Intn(4)
		n1, c1, n2, c2 := randomTable(rng, card)
		a, _, errA := CompareValues("a", nil, n1, c1, n2, c2, noCI)
		b, _, errB := CompareValues("a", nil, n2, c2, n1, c1, noCI)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: error asymmetry: %v vs %v", trial, errA, errB)
		}
		if errA != nil {
			continue
		}
		if math.Abs(a.Score-b.Score) > 1e-9*math.Max(1, a.Score) {
			t.Fatalf("trial %d: orientation changed M: %v vs %v", trial, a.Score, b.Score)
		}
	}
}
