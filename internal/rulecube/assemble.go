package rulecube

import (
	"fmt"
	"sort"

	"opmap/internal/dataset"
)

// Cubes returns every materialized cube in deterministic order: 1-D
// cubes by attribute index, then 2-D cubes by normalized pair. The
// slice is fresh; the cubes are the store's own.
func (s *Store) Cubes() []*Cube {
	out := make([]*Cube, 0, s.CubeCount())
	for _, a := range s.oneDAttrs() {
		out = append(out, s.Cube1(a))
	}
	for _, p := range s.twoDPairs() {
		out = append(out, s.Cube2(p[0], p[1]))
	}
	return out
}

// AssembleStore builds a Store over ds from cubes counted earlier —
// the warm-start path: a snapshot carries serialized cubes beside its
// rows, and assembly rebinds them to the dataset rebuilt from those
// rows without a single data pass. Every cube is validated against ds (attribute membership,
// per-dimension cardinality, class count) and its dictionaries are
// rebound to ds's, so the assembled store has one source of truth for
// labels; the caller must not keep using the cubes' previous bindings.
// cubes may cover any subset of attrs (a lazy session snapshots only
// its resident cubes); attrs defines the servable set.
func AssembleStore(ds *dataset.Dataset, attrs []int, cubes []*Cube) (*Store, error) {
	if ds == nil {
		return nil, fmt.Errorf("rulecube: assemble: nil dataset")
	}
	if !ds.AllCategorical() {
		return nil, fmt.Errorf("rulecube: assemble: dataset has continuous attributes; discretize first")
	}
	sorted := append([]int(nil), attrs...)
	sort.Ints(sorted)
	inSet := make(map[int]bool, len(sorted))
	for _, a := range sorted {
		if a < 0 || a >= ds.NumAttrs() {
			return nil, fmt.Errorf("rulecube: assemble: attribute index %d outside schema of %d attributes", a, ds.NumAttrs())
		}
		if a == ds.ClassIndex() {
			return nil, fmt.Errorf("rulecube: assemble: attribute %d is the class", a)
		}
		if inSet[a] {
			return nil, fmt.Errorf("rulecube: assemble: duplicate attribute %d", a)
		}
		inSet[a] = true
	}
	s := &Store{
		ds:    ds,
		attrs: sorted,
		oneD:  make(map[int]*Cube),
		twoD:  make(map[[2]int]*Cube),
	}
	for _, c := range cubes {
		if err := rebindCube(ds, inSet, c); err != nil {
			return nil, err
		}
		switch c.NumDims() {
		case 1:
			a := c.attrIdx[0]
			if s.Cube1(a) != nil {
				return nil, fmt.Errorf("rulecube: assemble: duplicate cube for attribute %d", a)
			}
			s.putCube1(a, c)
		case 2:
			a, b := c.attrIdx[0], c.attrIdx[1]
			if s.Cube2(a, b) != nil {
				return nil, fmt.Errorf("rulecube: assemble: duplicate cube for pair (%d,%d)", a, b)
			}
			s.putCube2(a, b, c)
		default:
			return nil, fmt.Errorf("rulecube: assemble: cube with %d condition dimensions (want 1 or 2)", c.NumDims())
		}
	}
	return s, nil
}

// rebindCube validates a cube against ds and repoints its dictionaries
// and attribute names at ds's. The cube's code space must line up with
// ds's dictionaries — guaranteed when both were derived from the same
// source in the same code order, which the per-dimension cardinality
// and class-count checks enforce.
func rebindCube(ds *dataset.Dataset, inSet map[int]bool, c *Cube) error {
	if c == nil {
		return fmt.Errorf("rulecube: assemble: nil cube")
	}
	if c.NumClasses() != ds.NumClasses() {
		return fmt.Errorf("rulecube: assemble: cube has %d classes, dataset has %d", c.NumClasses(), ds.NumClasses())
	}
	for i, a := range c.attrIdx {
		if !inSet[a] {
			return fmt.Errorf("rulecube: assemble: cube references attribute %d outside the store's set", a)
		}
		card := ds.Cardinality(a)
		if card == 0 {
			card = 1
		}
		if c.dims[i] != card {
			return fmt.Errorf("rulecube: assemble: cube dimension %d for attribute %q has cardinality %d, dataset says %d",
				i, ds.Attr(a).Name, c.dims[i], card)
		}
		c.attrNames[i] = ds.Attr(a).Name
		c.dicts[i] = ds.Column(a).Dict
	}
	c.classDict = ds.ClassDict()
	return nil
}
