package opmap

import (
	"math/rand"
	"reflect"
	"testing"
)

// insertionSortCubeExceptions is the quadratic insertion sort
// sortCubeExceptions replaced, kept as its reference: it swaps a later
// exception past an earlier one only when cubeExceptionLess says so,
// so fully tied exceptions keep their order.
func insertionSortCubeExceptions(out []CubeException) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && cubeExceptionLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

// TestSortCubeExceptionsMatchesInsertionSort: on shuffled exceptions
// with ties in |SelfExp| (opposite signs included), in attribute names
// and in all three keys at once, the stable library sort orders them
// exactly as the insertion sort did.
func TestSortCubeExceptionsMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	names := []string{"A", "B", "C"}
	for round := 0; round < 50; round++ {
		in := make([]CubeException, rng.Intn(200))
		for i := range in {
			self := float64(rng.Intn(5)) / 2
			if rng.Intn(2) == 0 {
				self = -self
			}
			in[i] = CubeException{
				Attr1:   names[rng.Intn(len(names))],
				Attr2:   names[rng.Intn(len(names))],
				Value1:  string(rune('a' + i%26)), // tells fully tied exceptions apart
				SelfExp: self,
				Support: int64(i),
			}
		}
		want := append([]CubeException(nil), in...)
		insertionSortCubeExceptions(want)
		got := append([]CubeException(nil), in...)
		sortCubeExceptions(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: %d exceptions sort differently from the insertion sort", round, len(in))
		}
	}
}
