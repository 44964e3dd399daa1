package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAdjustBHKnownExample(t *testing.T) {
	// Classic worked example: p = .01, .02, .03, .04, .05 with n = 5.
	// q_i = p_i * n / rank, then monotone from the top:
	// .05, .05, .05, .05, .05.
	p := []float64{0.01, 0.02, 0.03, 0.04, 0.05}
	q := AdjustBH(p)
	for i, want := range []float64{0.05, 0.05, 0.05, 0.05, 0.05} {
		if math.Abs(q[i]-want) > 1e-12 {
			t.Errorf("q[%d] = %v, want %v", i, q[i], want)
		}
	}
}

func TestAdjustBHOrderPreserved(t *testing.T) {
	// Results come back in input order, not sorted order.
	p := []float64{0.04, 0.001, 0.5}
	q := AdjustBH(p)
	if len(q) != 3 {
		t.Fatal("length changed")
	}
	// The smallest p keeps the smallest q.
	if !(q[1] <= q[0] && q[0] <= q[2]) {
		t.Errorf("q ordering broken: %v", q)
	}
	// Check exact values: sorted p = .001,.04,.5 →
	// raw q = .001*3/1=.003, .04*3/2=.06, .5*3/3=.5; already monotone.
	if math.Abs(q[1]-0.003) > 1e-12 || math.Abs(q[0]-0.06) > 1e-12 || math.Abs(q[2]-0.5) > 1e-12 {
		t.Errorf("q = %v", q)
	}
}

func TestAdjustBHEdges(t *testing.T) {
	if AdjustBH(nil) != nil {
		t.Error("nil input should yield nil")
	}
	q := AdjustBH([]float64{0.2})
	if q[0] != 0.2 {
		t.Errorf("single p unchanged, got %v", q[0])
	}
	// Clamping.
	q = AdjustBH([]float64{-0.5, 2})
	if q[0] < 0 || q[1] > 1 {
		t.Errorf("clamping broken: %v", q)
	}
}

// Properties: q ≥ p, q ∈ [0,1], and q is monotone in p.
func TestAdjustBHProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		p := make([]float64, len(raw))
		for i, r := range raw {
			p[i] = math.Abs(math.Mod(r, 1))
		}
		q := AdjustBH(p)
		for i := range p {
			if q[i] < p[i]-1e-12 || q[i] < 0 || q[i] > 1 {
				return false
			}
		}
		// Monotone: smaller p never gets a larger q.
		for i := range p {
			for j := range p {
				if p[i] < p[j] && q[i] > q[j]+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
