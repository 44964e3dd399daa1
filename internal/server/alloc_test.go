//go:build !race

// The race detector drops sync.Pool items at random and instruments
// allocation, so allocation counts are only gated without it.

package server

import "testing"

// TestServeAllocs gates the garbage one answer makes through Handler()
// over resident cubes. The bounds sit about 20% above this change's
// measurement on the call-log fixture (91 allocations per pinned
// compare, 384 per all_values sweep; before it, 1,051 and 6,011). The
// counts must also not depend on how many values the candidates have:
// per-value append growth would show up as a difference between 4- and
// 16-valued candidates.
func TestServeAllocs(t *testing.T) {
	f := callLogServeFixture(t)
	if got := allocsPerAnswer(t, f, f.compares, 200); got > 110 {
		t.Errorf("pinned compare: %.0f allocations per answer, want ≤ 110", got)
	}
	if got := allocsPerAnswer(t, f, f.sweeps, 100); got > 460 {
		t.Errorf("all_values sweep: %.0f allocations per answer, want ≤ 460", got)
	}

	narrow, wide := cardinalityServeFixture(t, 4), cardinalityServeFixture(t, 16)
	if n, w := allocsPerAnswer(t, narrow, narrow.compares, 200), allocsPerAnswer(t, wide, wide.compares, 200); n != w {
		t.Errorf("pinned compare: %.0f allocations with 4-valued candidates, %.0f with 16-valued", n, w)
	}
	if n, w := allocsPerAnswer(t, narrow, narrow.sweeps, 16), allocsPerAnswer(t, wide, wide.sweeps, 16); n != w {
		t.Errorf("all_values sweep: %.0f allocations with 4-valued candidates, %.0f with 16-valued", n, w)
	}
}
