package compare

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"opmap/internal/stats"
)

// details derives every value breakdown of s, one of res's scores.
func details(res *Result, s AttrScore) []ValueDetail {
	out := make([]ValueDetail, len(s.Values))
	for k := range s.Values {
		out[k] = res.Detail(s, k)
	}
	return out
}

// referenceDetail is the per-value breakdown as scoring computed it
// inline before answers kept counts only: the reference derive must
// reproduce bit for bit.
func referenceDetail(t *testing.T, v ValueCounts, ratio float64, opts Options) ValueDetail {
	t.Helper()
	z := 0.0
	if !opts.DisableCI {
		var err error
		z, err = stats.ZValue(opts.level())
		if err != nil {
			t.Fatal(err)
		}
	}
	n1, c1, n2, c2 := v.N1, v.C1, v.N2, v.C2
	d := ValueDetail{ValueCounts: v}
	if n1 > 0 {
		d.Cf1 = float64(c1) / float64(n1)
	}
	if n2 > 0 {
		d.Cf2 = float64(c2) / float64(n2)
	}
	d.RCf1, d.RCf2 = d.Cf1, d.Cf2
	if !opts.DisableCI {
		d.E1 = margin(opts.Method, z, d.Cf1, n1, c1, opts.level())
		d.E2 = margin(opts.Method, z, d.Cf2, n2, c2, opts.level())
		d.RCf1 = math.Min(1, d.Cf1+d.E1)
		d.RCf2 = math.Max(0, d.Cf2-d.E2)
	}
	d.F = d.RCf2 - d.RCf1*ratio
	if d.F > 0 && n2 > 0 {
		d.W = d.F * float64(n2)
	}
	return d
}

// TestDeriveMatchesReference: over random counts, both interval
// methods, several levels and with CI disabled, derive equals the
// reference field by field.
func TestDeriveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	count := func() (n, c int64) {
		if rng.Intn(5) == 0 {
			return 0, 0
		}
		n = 1 + rng.Int63n(5000)
		return n, rng.Int63n(n + 1)
	}
	for _, level := range []stats.ConfidenceLevel{0, 0.80, stats.Level90, stats.Level95, stats.Level99, 0.999} {
		for _, method := range []IntervalMethod{Wald, Wilson} {
			for _, disableCI := range []bool{false, true} {
				opts := Options{Level: level, Method: method, DisableCI: disableCI}
				var z float64
				if !disableCI {
					var err error
					if z, err = stats.ZValue(opts.level()); err != nil {
						t.Fatal(err)
					}
				}
				for trial := 0; trial < 500; trial++ {
					var v ValueCounts
					v.N1, v.C1 = count()
					v.N2, v.C2 = count()
					ratio := 1 + 4*rng.Float64()
					got := derive(v, z, ratio, &opts)
					if want := referenceDetail(t, v, ratio, opts); got != want {
						t.Fatalf("%+v: derive %+v, reference %+v", opts, got, want)
					}
				}
			}
		}
	}
}

// checkScoreSums asserts that every score of res equals the in-order
// sum of its derived contributions W, bit for bit.
func checkScoreSums(t *testing.T, path string, res *Result) {
	t.Helper()
	for _, s := range append(append([]AttrScore(nil), res.Ranked...), res.Property...) {
		var m float64
		for k := range s.Values {
			m += res.Detail(s, k).W
		}
		if m != s.Score {
			t.Errorf("%s %s: sum of W %v, score %v", path, s.Name, m, s.Score)
		}
	}
}

// TestScoreIsSumOfDerivedW covers every scoring path: pinned compare,
// scan, one-vs-rest, one-vs-rest over every value, CompareValues and
// the permutation test's rounds.
func TestScoreIsSumOfDerivedW(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 20000, 3)
	in := inputFor(t, ds, gt)
	c := NewSource(store)
	for _, opts := range []Options{{}, {Method: Wilson, Level: stats.Level99}, {DisableCI: true}} {
		res, err := c.Compare(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkScoreSums(t, "Compare", res)
		if res, err = Scan(context.Background(), ds, nil, in, opts); err != nil {
			t.Fatal(err)
		}
		checkScoreSums(t, "Scan", res)
		if res, err = c.OneVsRest(OneVsRestInput{Attr: in.Attr, Value: in.V2, Class: in.Class}, opts); err != nil {
			t.Fatal(err)
		}
		checkScoreSums(t, "OneVsRest", res)
		all, err := c.OneVsRestAllContext(context.Background(), in.Attr, in.Class, OneVsRestAllOptions{Compare: opts})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range all.Results {
			checkScoreSums(t, "OneVsRestAll", res)
		}
	}

	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 200; trial++ {
		opts := Options{DisableCI: trial%3 == 0, Method: IntervalMethod(trial % 2)}
		n1, c1, n2, c2 := randomTable(rng, 2+rng.Intn(6))
		score, res, err := CompareValues("a", nil, n1, c1, n2, c2, opts)
		if err != nil {
			continue
		}
		checkScoreSums(t, "CompareValues", &res)
		// A permutation round scores its table as CompareValues does.
		var t1n, t1c, t2n, t2c int64
		for k := range n1 {
			t1n, t1c, t2n, t2c = t1n+n1[k], t1c+c1[k], t2n+n2[k], t2c+c2[k]
		}
		m, ok := permScore(valueTable{n1: n1, c1: c1, n2: n2, c2: c2}, t1n, t1c, t2n, t2c, opts)
		if ok && m != score.Score {
			t.Errorf("trial %d: permutation round M %v, CompareValues %v", trial, m, score.Score)
		}
	}
}

// TestValueCountsHoldNoPointers keeps the per-value slab out of the
// collector's scan: every field is a plain number.
func TestValueCountsHoldNoPointers(t *testing.T) {
	typ := reflect.TypeOf(ValueCounts{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Int64:
		default:
			t.Errorf("ValueCounts.%s is a %s; the slab must hold no pointers", f.Name, f.Type)
		}
	}
	if size := typ.Size(); size != 40 {
		t.Errorf("ValueCounts is %d bytes, want 40", size)
	}
}
