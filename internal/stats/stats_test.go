package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// TestZTable verifies Table I of the paper exactly.
func TestZTable(t *testing.T) {
	cases := []struct {
		level ConfidenceLevel
		want  float64
	}{
		{Level90, 1.645},
		{Level95, 1.960},
		{Level99, 2.576},
	}
	for _, c := range cases {
		got, err := ZValue(c.level)
		if err != nil {
			t.Fatalf("ZValue(%v): %v", c.level, err)
		}
		if got != c.want {
			t.Errorf("ZValue(%v) = %v, want %v (Table I)", c.level, got, c.want)
		}
	}
}

func TestZValueComputedLevels(t *testing.T) {
	// A level not in Table I falls back to the inverse normal CDF and
	// must be close to the textbook value.
	got, err := ZValue(0.80)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.2816) > 1e-3 {
		t.Errorf("ZValue(0.80) = %v, want ≈1.2816", got)
	}
}

func TestZValueRejectsBadLevels(t *testing.T) {
	for _, level := range []ConfidenceLevel{0, 1, -0.5, 1.5} {
		if _, err := ZValue(level); err == nil {
			t.Errorf("ZValue(%v) should fail", level)
		}
	}
}

func TestMustZValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustZValue(2) should panic")
		}
	}()
	MustZValue(2)
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999} {
		z := NormalQuantile(p)
		back := NormalCDF(z)
		if math.Abs(back-p) > 1e-6 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, back)
		}
	}
}

func TestNormalQuantileExtremes(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("Quantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
	if NormalQuantile(0.5) != 0 {
		t.Errorf("Quantile(0.5) = %v, want 0", NormalQuantile(0.5))
	}
}

func TestProportionCIMatchesPaperFormula(t *testing.T) {
	// e = z·sqrt(cf(1−cf)/N) with z = 1.96.
	ci, err := ProportionCI(20, 200, Level95)
	if err != nil {
		t.Fatal(err)
	}
	cf := 0.1
	want := 1.96 * math.Sqrt(cf*(1-cf)/200)
	if math.Abs(ci.Margin-want) > 1e-12 {
		t.Errorf("margin = %v, want %v", ci.Margin, want)
	}
	if ci.Proportion != cf {
		t.Errorf("proportion = %v, want %v", ci.Proportion, cf)
	}
	if ci.Lower != cf-want || ci.Upper != cf+want {
		t.Errorf("bounds [%v,%v], want [%v,%v]", ci.Lower, ci.Upper, cf-want, cf+want)
	}
}

func TestProportionCIZeroN(t *testing.T) {
	ci, err := ProportionCI(0, 0, Level95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Margin != 0.5 {
		t.Errorf("zero-N margin = %v, want 0.5 (maximal uncertainty)", ci.Margin)
	}
}

func TestProportionCIClampsToUnit(t *testing.T) {
	ci, err := ProportionCI(1, 2, Level99)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lower < 0 || ci.Upper > 1 {
		t.Errorf("interval [%v,%v] escapes [0,1]", ci.Lower, ci.Upper)
	}
}

func TestProportionCIRejectsInvalid(t *testing.T) {
	for _, c := range []struct{ s, n int64 }{{-1, 10}, {11, 10}, {5, -1}} {
		if _, err := ProportionCI(c.s, c.n, Level95); err == nil {
			t.Errorf("ProportionCI(%d,%d) should fail", c.s, c.n)
		}
	}
}

func TestWilsonCIProperties(t *testing.T) {
	// Wilson never leaves [0,1] even at extremes, and contains the
	// point estimate... (the Wilson center is shrunk toward 0.5, but the
	// interval still covers p for reasonable N).
	for _, c := range []struct{ s, n int64 }{{0, 10}, {10, 10}, {1, 3}, {50, 100}} {
		ci, err := WilsonCI(c.s, c.n, Level95)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Lower < 0 || ci.Upper > 1 {
			t.Errorf("Wilson(%d/%d) = [%v,%v] escapes [0,1]", c.s, c.n, ci.Lower, ci.Upper)
		}
		p := float64(c.s) / float64(c.n)
		if p < ci.Lower-1e-9 || p > ci.Upper+1e-9 {
			t.Errorf("Wilson(%d/%d) = [%v,%v] does not contain %v", c.s, c.n, ci.Lower, ci.Upper, p)
		}
	}
}

// Property: the Wald margin shrinks as N grows, at fixed proportion.
func TestProportionCIMonotoneInN(t *testing.T) {
	f := func(seed uint8) bool {
		n1 := int64(seed) + 10
		n2 := n1 * 4
		ci1, err1 := ProportionCI(n1/2, n1, Level95)
		ci2, err2 := ProportionCI(n2/2, n2, Level95)
		if err1 != nil || err2 != nil {
			return false
		}
		return ci2.Margin < ci1.Margin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChiSquareIndependence(t *testing.T) {
	// Perfectly proportional table → statistic 0.
	chi2, df, err := ChiSquare([][]int64{{10, 20}, {30, 60}})
	if err != nil {
		t.Fatal(err)
	}
	if chi2 != 0 {
		t.Errorf("chi2 = %v, want 0 for proportional table", chi2)
	}
	if df != 1 {
		t.Errorf("df = %d, want 1", df)
	}
}

func TestChiSquareKnownValue(t *testing.T) {
	// 2×2 with strong association. Hand computation:
	// [[50,10],[10,50]], N=120, expected all 30 off by 20 → chi2 = 4·400/30 ≈ 53.33.
	chi2, df, err := ChiSquare([][]int64{{50, 10}, {10, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(chi2-53.3333) > 1e-3 {
		t.Errorf("chi2 = %v, want ≈53.333", chi2)
	}
	if df != 1 {
		t.Errorf("df = %d", df)
	}
	if p := ChiSquarePValue(chi2, df); p > 1e-6 {
		t.Errorf("p = %v, want ≈0 for chi2=53", p)
	}
}

func TestChiSquareIgnoresEmptyRows(t *testing.T) {
	chi2a, dfa, err := ChiSquare([][]int64{{50, 10}, {0, 0}, {10, 50}})
	if err != nil {
		t.Fatal(err)
	}
	chi2b, dfb, err := ChiSquare([][]int64{{50, 10}, {10, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(chi2a-chi2b) > 1e-9 || dfa != dfb {
		t.Errorf("empty row changed result: (%v,%d) vs (%v,%d)", chi2a, dfa, chi2b, dfb)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, err := ChiSquare(nil); err == nil {
		t.Error("empty table should fail")
	}
	if _, _, err := ChiSquare([][]int64{{1, 2}, {3}}); err == nil {
		t.Error("ragged table should fail")
	}
	if _, _, err := ChiSquare([][]int64{{1, -2}}); err == nil {
		t.Error("negative count should fail")
	}
	if _, _, err := ChiSquare([][]int64{{0, 0}}); err == nil {
		t.Error("zero-total table should fail")
	}
}

func TestChiSquarePValueEdges(t *testing.T) {
	if p := ChiSquarePValue(10, 0); p != 1 {
		t.Errorf("df=0 p = %v, want 1", p)
	}
	if p := ChiSquarePValue(0, 3); p != 1 {
		t.Errorf("stat=0 p = %v, want 1", p)
	}
	if p := ChiSquarePValue(3.84, 1); math.Abs(p-0.05) > 0.01 {
		t.Errorf("chi2=3.84 df=1 p = %v, want ≈0.05", p)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]int64{50, 50}); math.Abs(h-1) > 1e-12 {
		t.Errorf("uniform binary entropy = %v, want 1", h)
	}
	if h := Entropy([]int64{100, 0}); h != 0 {
		t.Errorf("pure entropy = %v, want 0", h)
	}
	if h := Entropy(nil); h != 0 {
		t.Errorf("empty entropy = %v, want 0", h)
	}
	if h := Entropy([]int64{1, 1, 1, 1}); math.Abs(h-2) > 1e-12 {
		t.Errorf("uniform 4-way entropy = %v, want 2", h)
	}
}

// Property: entropy is maximized by the uniform distribution.
func TestEntropyMaxAtUniform(t *testing.T) {
	f := func(a, b, c uint16) bool {
		counts := []int64{int64(a) + 1, int64(b) + 1, int64(c) + 1}
		return Entropy(counts) <= math.Log2(3)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if sd := StdDev(xs); math.Abs(sd-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty mean/stddev should be 0")
	}
}
