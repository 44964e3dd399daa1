// Package good holds the blessed patterns: cube cache maps and slices
// are only touched by methods of the owning type, and containers of
// anything else are free.
package good

import "sync/atomic"

// Cube is a stand-in for the rule cube count array.
type Cube struct{ cells []int64 }

// Store caches cubes behind accessor methods.
type Store struct {
	oneD  map[int]*Cube
	twoD  map[[2]int]*Cube
	names map[int]string
}

// Cube1 reads the 1-D cache from the owning type.
func (s *Store) Cube1(a int) *Cube { return s.oneD[a] }

// Cube2 canonicalizes the pair key inside the owner.
func (s *Store) Cube2(a, b int) *Cube {
	if a > b {
		a, b = b, a
	}
	return s.twoD[[2]int{a, b}]
}

// put is the owner's write path.
func (s *Store) put(a, b int, c *Cube) {
	s.twoD[[2]int{a, b}] = c
}

// count iterates from the owner.
func (s *Store) count() int {
	n := len(s.oneD)
	for range s.twoD {
		n++
	}
	return n
}

// Names reads a non-cube map from outside; only cube-valued maps are
// guarded.
func Names(s *Store) map[int]string { return s.names }

// Label indexes the non-cube map freely.
func Label(s *Store, a int) string { return s.names[a] }

// Local maps of cubes are not struct fields and stay free.
func Local(c *Cube) *Cube {
	m := map[int]*Cube{0: c}
	return m[0]
}

// entry is a cache entry holding a cube; wait only points at one.
type entry struct{ cube *Cube }
type wait struct{ e *entry }

// Engine caches cubes in a slot slice; its other slices hold no cube.
type Engine struct {
	slots []atomic.Pointer[entry]
	waits []wait
	flags []atomic.Bool
}

// hit is the owner's read path.
func (e *Engine) hit(i int) *Cube { return e.slots[i].Load().cube }

// Free ranges and indexes the cube-free slices from outside.
func Free(e *Engine) bool {
	for range e.waits {
	}
	return e.flags[0].Load()
}
