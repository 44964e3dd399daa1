//go:build !race

// The race detector drops sync.Pool items at random and instruments
// allocation, so allocation counts are only gated without it.

package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestServeAllocs gates the garbage one answer makes through Handler()
// over resident cubes, in allocations and in bytes. The bounds sit
// about 20% above this change's measurement on the call-log fixture:
// 83 allocations and 43.3 KB per pinned compare, 330 allocations and
// 225.4 KB per all_values sweep. Before answers kept counts only, they
// were 91 allocations and 85.4 KB, and 384 allocations and 476.9 KB.
// Since answers are encoded into pooled buffers and scored in place,
// they are 74 allocations and 40.1 KB, and 315 and 191.9 KB; the
// bounds stayed where they were.
// The allocation counts must also not depend on how many values the
// candidates have: per-value append growth would show up as a
// difference between 4- and 16-valued candidates.
func TestServeAllocs(t *testing.T) {
	f := callLogServeFixture(t)
	allocs, bytes := costPerAnswer(t, f, f.compares, 200)
	t.Logf("pinned compare: %.0f allocations, %.1f KB per answer", allocs, bytes/1024)
	if allocs > 100 {
		t.Errorf("pinned compare: %.0f allocations per answer, want ≤ 100", allocs)
	}
	if bytes > 52<<10 {
		t.Errorf("pinned compare: %.1f KB per answer, want ≤ 52 KB", bytes/1024)
	}
	allocs, bytes = costPerAnswer(t, f, f.sweeps, 100)
	t.Logf("all_values sweep: %.0f allocations, %.1f KB per answer", allocs, bytes/1024)
	if allocs > 400 {
		t.Errorf("all_values sweep: %.0f allocations per answer, want ≤ 400", allocs)
	}
	if bytes > 270<<10 {
		t.Errorf("all_values sweep: %.1f KB per answer, want ≤ 270 KB", bytes/1024)
	}

	narrow, wide := cardinalityServeFixture(t, 4), cardinalityServeFixture(t, 16)
	for _, c := range []struct {
		name         string
		narrow, wide []*http.Request
		n            int
	}{
		{"pinned compare", narrow.compares, wide.compares, 200},
		{"all_values sweep", narrow.sweeps, wide.sweeps, 16},
	} {
		n, _ := costPerAnswer(t, narrow, c.narrow, c.n)
		w, _ := costPerAnswer(t, wide, c.wide, c.n)
		if n != w {
			t.Errorf("%s: %.0f allocations with 4-valued candidates, %.0f with 16-valued", c.name, n, w)
		}
	}
}

// TestDecodeIngestAllocs gates the one-pass decode of the benchmark's
// 100-row ingest body at 4 allocations: the read buffer, one string
// copy of it, the field slice and the row slice. encoding/json made
// about 9,100 for the same body.
func TestDecodeIngestAllocs(t *testing.T) {
	_, body := benchIngest(t, 100)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		buf, err := readBody(r, int64(len(body)))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := decodeRows(buf); !ok {
			t.Fatal("decodeRows rejected the benchmark's ingest body")
		}
	})
	t.Logf("%d-byte body: %.0f allocations", len(body), allocs)
	if allocs > 4 {
		t.Errorf("decoding the benchmark's ingest body: %.0f allocations, want ≤ 4", allocs)
	}
}
