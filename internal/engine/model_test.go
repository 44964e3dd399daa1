package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/rulecube"
	"opmap/internal/testutil"
)

// modelAttrs is the number of condition attributes of the model-test
// dataset; the class sits at index modelAttrs.
const modelAttrs = 5

// modelRow draws one textual row over labels v0..v{labels-1}, with
// each condition value missing one time in ten.
func modelRow(rng *rand.Rand, labels int) []string {
	row := make([]string, modelAttrs+1)
	for a := 0; a < modelAttrs; a++ {
		row[a] = fmt.Sprintf("v%d", rng.Intn(labels))
		if rng.Intn(10) == 0 {
			row[a] = dataset.MissingLabel
		}
	}
	row[modelAttrs] = fmt.Sprintf("c%d", rng.Intn(2))
	return row
}

func modelDataset(t *testing.T, rng *rand.Rand) *dataset.Dataset {
	t.Helper()
	schema := dataset.Schema{ClassIndex: modelAttrs}
	for a := 0; a <= modelAttrs; a++ {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("A%d", a), Kind: dataset.Categorical})
	}
	b, err := dataset.NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 300; r++ {
		if err := b.AddRow(modelRow(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// refLRU is the reference the engine's cache must agree with: 1-D
// cubes pinned, every other cube in a list ordered most recently used
// first, evicted from the back while the bytes exceed the budget.
type refLRU struct {
	budget    int64
	pinned    map[string]bool
	order     []string // most recently used first
	cube      map[string]*rulecube.Cube
	evictions int64
}

func (r *refLRU) resident(k string) bool { return r.pinned[k] || r.cube[k] != nil }

func (r *refLRU) touch(k string) {
	if r.pinned[k] {
		return
	}
	for i, o := range r.order {
		if o == k {
			copy(r.order[1:i+1], r.order[:i])
			r.order[0] = k
			return
		}
	}
}

func (r *refLRU) insert(k string, c *rulecube.Cube) {
	if len(c.AttrIndices()) == 1 {
		r.pinned[k] = true
		return
	}
	r.order = append([]string{k}, r.order...)
	r.cube[k] = c
	r.evict()
}

func (r *refLRU) bytes() int64 {
	var n int64
	for _, k := range r.order {
		n += r.cube[k].SizeBytes()
	}
	return n
}

func (r *refLRU) evict() {
	for r.bytes() > r.budget && len(r.order) > 0 {
		k := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		delete(r.cube, k)
		r.evictions++
	}
}

// keys lists the resident keys in sorted order.
func (r *refLRU) keys() []string {
	var out []string
	for k := range r.pinned {
		out = append(out, k)
	}
	out = append(out, r.order...)
	sort.Strings(out)
	return out
}

func modelKey(attrs []int) string {
	norm := append([]int(nil), attrs...)
	sort.Ints(norm)
	return fmt.Sprint(norm)
}

// TestCacheModel drives seeded random CubeN, Cubes, SeedCubes and
// IngestRows calls through a LazySource whose budget holds a few
// cubes, and after every call compares its resident key set,
// CachedBytes and Evictions with refLRU, a list-based LRU: the use
// stamps must evict exactly the cube a recency list would.
func TestCacheModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds := modelDataset(t, rng)
	const budget = 4000
	src, err := engine.NewLazy(ds, engine.LazyOptions{CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	ref := &refLRU{budget: budget, pinned: map[string]bool{}, cube: map[string]*rulecube.Cube{}}
	ctx := context.Background()

	randSet := func() []int {
		perm := rng.Perm(modelAttrs)
		return perm[:1+rng.Intn(3)]
	}
	labels := 3
	for step := 0; step < 600; step++ {
		var op string
		switch k := rng.Intn(10); {
		case k < 4:
			op = "CubeN"
			attrs := randSet()
			c, err := src.CubeN(ctx, attrs)
			if err != nil {
				t.Fatal(err)
			}
			key := modelKey(attrs)
			if ref.resident(key) {
				ref.touch(key)
			} else {
				ref.insert(key, c)
			}
		case k < 7:
			op = "Cubes"
			reqs := make([][]int, 1+rng.Intn(4))
			for i := range reqs {
				reqs[i] = randSet()
			}
			cubes, err := src.Cubes(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			led := map[string]bool{}
			var build []string
			built := map[string]*rulecube.Cube{}
			for i, attrs := range reqs {
				key := modelKey(attrs)
				switch {
				case ref.resident(key):
					ref.touch(key)
				case !led[key]:
					led[key] = true
					build = append(build, key)
					built[key] = cubes[i]
				}
			}
			for _, key := range build {
				ref.insert(key, built[key])
			}
		case k < 8:
			op = "SeedCubes"
			reqs := make([][]int, 1+rng.Intn(3))
			for i := range reqs {
				reqs[i] = randSet()
				sort.Ints(reqs[i])
			}
			cubes, err := rulecube.BuildMany(ctx, ds, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := src.SeedCubes(cubes); err != nil {
				t.Fatal(err)
			}
			for i, attrs := range reqs {
				if key := modelKey(attrs); !ref.resident(key) {
					ref.insert(key, cubes[i])
				}
			}
		default:
			op = "IngestRows"
			if labels < 4 && rng.Intn(4) == 0 {
				labels++ // grow the dictionaries, and with them cube sizes
			}
			lines := make([][]string, 1+rng.Intn(20))
			for i := range lines {
				lines[i] = modelRow(rng, labels)
			}
			src.IngestRows(testutil.AppendBatch(t, ds, lines))
			ref.evict()
		}

		var got []string
		for _, c := range src.ResidentCubes() {
			got = append(got, modelKey(c.AttrIndices()))
		}
		sort.Strings(got)
		st := src.Stats()
		if !reflect.DeepEqual(got, ref.keys()) {
			t.Fatalf("step %d (%s): resident %v, reference %v", step, op, got, ref.keys())
		}
		if st.CachedBytes != ref.bytes() || st.Evictions != ref.evictions {
			t.Fatalf("step %d (%s): bytes %d evictions %d, reference bytes %d evictions %d",
				step, op, st.CachedBytes, st.Evictions, ref.bytes(), ref.evictions)
		}
	}
	if st := src.Stats(); ref.evictions < 50 || st.Hits < 50 {
		t.Fatalf("%d evictions, %d hits: the run does not exercise the LRU", ref.evictions, st.Hits)
	}
}

// TestResidentHitAllocFree: a hit on a resident 1-D or pair cube
// allocates nothing, pinned or not.
func TestResidentHitAllocFree(t *testing.T) {
	ds, _, eager, lazy := oracle(t)
	ctx := context.Background()
	one, pair := []int{0}, []int{3, 1}
	if ds.ClassIndex() <= 3 {
		t.Fatal("test assumes attributes 0..3 are not the class")
	}
	for name, src := range map[string]*engine.LazySource{"pinned": eager, "lazy": lazy} {
		for _, req := range [][]int{one, pair} {
			if _, err := src.CubeN(ctx, req); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(100, func() {
				if _, err := src.CubeN(ctx, req); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Errorf("%s: CubeN(%v) hit allocated %.0f times", name, req, n)
			}
		}
	}
}
