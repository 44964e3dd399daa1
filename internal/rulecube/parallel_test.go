package rulecube_test

import (
	"fmt"
	"testing"

	"opmap/internal/workload"
)

// TestConcurrentReadersDuringForEach hammers a finished store with
// concurrent readers: several goroutines iterate the same cubes with
// ForEach while others read counts and confidences point-wise. A
// built store is immutable, so this must be race-free — the test
// exists to let `go test -race` prove it and to catch any future
// mutation sneaking into the read paths (lazy caches, memoization).
func TestConcurrentReadersDuringForEach(t *testing.T) {
	ds, err := workload.Scale(workload.ScaleConfig{Seed: 7, Records: 5000, Attrs: 6})
	if err != nil {
		t.Fatal(err)
	}
	cubes := storeCubes(t, ds)
	n := ds.NumAttrs() - 1 // StoreRequests order: n 1-D cubes, then the pairs
	if n < 2 {
		t.Fatalf("need at least 2 attributes, got %d", n)
	}
	oneD, cube := cubes[:n], cubes[n]

	const readers = 8
	errs := make(chan error, 2*readers)
	done := make(chan struct{})
	// Half the goroutines sweep with ForEach...
	for g := 0; g < readers; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for rep := 0; rep < 3; rep++ {
				cube.ForEach(func(values []int32, class int32, count int64) {
					n, err := cube.Count(values, class)
					if err != nil {
						errs <- err
						return
					}
					if n != count {
						errs <- fmt.Errorf("cell %v/%d: concurrent Count %d != ForEach count %d", values, class, n, count)
					}
				})
			}
		}()
	}
	// ...while the other half reads point-wise state: marginals,
	// confidences and scale factors across every 1-D cube.
	for g := 0; g < readers; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for rep := 0; rep < 3; rep++ {
				for _, c1 := range oneD {
					if _, err := c1.ValueMarginals(0); err != nil {
						errs <- err
						return
					}
					c1.ScaleFactors()
					for v := 0; v < c1.Dim(0); v++ {
						for k := 0; k < c1.NumClasses(); k++ {
							if _, err := c1.Confidence([]int32{int32(v)}, int32(k)); err != nil {
								errs <- err
								return
							}
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 2*readers; i++ {
		<-done
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
