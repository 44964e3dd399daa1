package compare

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/rulecube"
)

// TestSortScoresMatchesStableSort checks that the permutation sort
// orders rankings exactly as slices.SortStableFunc(…, byScore) does,
// on random rankings with tied scores and names, ±0, +Inf and NaN
// scores, at lengths on both sides of finish's stack buffer.
func TestSortScoresMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1.5, 1.5, 2}
	for round := 0; round < 400; round++ {
		n := rng.Intn(40)
		switch round % 10 {
		case 8:
			n = sortBuf + rng.Intn(60)
		case 9:
			n = rng.Intn(sortBuf + 1)
		}
		scores := make([]AttrScore, n)
		for i := range scores {
			s := &scores[i]
			s.Attr = i // identifies the entry after sorting
			s.Name = fmt.Sprintf("a%d", rng.Intn(max(n/3, 1)))
			if rng.Intn(2) == 0 {
				s.Score = special[rng.Intn(len(special))]
			} else {
				s.Score = float64(rng.Intn(5)) / 4
			}
		}
		want := slices.Clone(scores)
		slices.SortStableFunc(want, func(a, b AttrScore) int { return byScore(&a, &b) })

		got := slices.Clone(scores)
		res := &Result{Ranked: got}
		(&computation{result: res}).finish()
		got = res.Ranked
		if len(got) != len(want) {
			t.Fatalf("round %d: %d scores after sorting, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].Attr != want[i].Attr {
				t.Fatalf("round %d (n=%d): position %d holds entry %d (%s, %v), stable sort put entry %d (%s, %v) there",
					round, n, i, got[i].Attr, got[i].Name, got[i].Score, want[i].Attr, want[i].Name, want[i].Score)
			}
		}
	}
}

// TestOneVsRestTableRejectsMismatchedCubes checks that a marginal
// narrower than the pair cube's candidate dimension, a marginal over
// another attribute, a pair over other attributes and an out-of-range
// class or value each fail with an error instead of panicking.
func TestOneVsRestTableRejectsMismatchedCubes(t *testing.T) {
	wide := timeTable(t, []string{"am", "pm", "eve"})
	narrow := timeTable(t, []string{"am", "pm"})
	build := func(ds *dataset.Dataset, attrs ...int) *rulecube.Cube {
		t.Helper()
		cubes, err := rulecube.BuildMany(context.Background(), ds, [][]int{attrs})
		if err != nil {
			t.Fatal(err)
		}
		c := cubes[0]
		return c
	}
	const phone, tm, region = 0, 1, 2
	pair, marginal := build(wide, phone, tm), build(wide, tm)
	comp := &computation{result: &Result{}}
	if _, err := comp.oneVsRestTable(pair, marginal, phone, tm, 0, 0); err != nil {
		t.Fatalf("matching cubes: %v", err)
	}
	for _, c := range []struct {
		name           string
		pair, marginal *rulecube.Cube
		v, class       int32
	}{
		{"narrow marginal", pair, build(narrow, tm), 0, 0},
		{"marginal of another attribute", pair, build(wide, region), 0, 0},
		{"pair over other attributes", build(wide, phone, region), marginal, 0, 0},
		{"class out of range", pair, marginal, 0, 2},
		{"negative class", pair, marginal, 0, -1},
		{"value out of range", pair, marginal, 2, 0},
	} {
		if _, err := comp.oneVsRestTable(c.pair, c.marginal, phone, tm, c.v, c.class); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// timeTable is a 60-row table (Phone, Time, Region, Disposition) whose
// Time takes the given values in turn.
func timeTable(t *testing.T, times []string) *dataset.Dataset {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "Phone", Kind: dataset.Categorical},
			{Name: "Time", Kind: dataset.Categorical},
			{Name: "Region", Kind: dataset.Categorical},
			{Name: "Disposition", Kind: dataset.Categorical},
		},
		ClassIndex: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		class := "ok"
		if i%4 == 1 || i%7 == 0 {
			class = "drop"
		}
		row := []string{[]string{"p1", "p2"}[i%2], times[(i/2)%len(times)], []string{"n", "s"}[(i/6)%2], class}
		if err := b.AddRow(row); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
