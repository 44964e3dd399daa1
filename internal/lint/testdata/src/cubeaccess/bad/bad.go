// Package bad exercises the cubeaccess analyzer: every construct here
// reaches into a cube cache map or slice from outside the owning type.
package bad

import "sync/atomic"

// Cube is a stand-in for the rule cube count array.
type Cube struct{ cells []int64 }

// Store caches cubes in maps its methods keep consistent.
type Store struct {
	oneD map[int]*Cube
	twoD map[[2]int]*Cube
}

// Cube1 is the accessor; in-method access is the allowed pattern.
func (s *Store) Cube1(a int) *Cube { return s.oneD[a] }

// Reader wraps a Store but is not the owning type.
type Reader struct{ st *Store }

// Peek bypasses the accessor from a foreign method.
func (r *Reader) Peek(a int) *Cube {
	return r.st.oneD[a] // want `direct access to cube cache Store.oneD`
}

// Count ranges the cache from a free function.
func Count(s *Store) int {
	n := 0
	for range s.twoD { // want `direct access to cube cache Store.twoD`
		n++
	}
	return n
}

// Put writes the cache from a free function, skipping key
// canonicalization.
func Put(s *Store, a, b int, c *Cube) {
	s.twoD[[2]int{a, b}] = c // want `direct access to cube cache Store.twoD`
}

// Drop deletes through the builtin, which has no index expression.
func Drop(s *Store, a int) {
	delete(s.oneD, a) // want `direct access to cube cache Store.oneD`
}

// Size measures the cache with len from outside.
func Size(s *Store) int {
	return len(s.twoD) // want `direct access to cube cache Store.twoD`
}

// entry is a cache entry holding a cube.
type entry struct{ cube *Cube }

// Engine caches cubes in slices: atomic slots, entries, plain cubes.
type Engine struct {
	slots []atomic.Pointer[entry]
	lru   []*entry
	all   []*Cube
}

// hit is the owner's read path.
func (e *Engine) hit(i int) *Cube { return e.slots[i].Load().cube }

// Peek reads every slice from a free function.
func Peek(e *Engine) int {
	_ = e.slots[0].Load() // want `direct access to cube cache Engine.slots`
	for range e.lru {     // want `direct access to cube cache Engine.lru`
	}
	return len(e.all) // want `direct access to cube cache Engine.all`
}
