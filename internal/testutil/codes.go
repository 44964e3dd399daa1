package testutil

import (
	"unsafe"

	"opmap/internal/dataset"
)

// CodesData returns the address of c's backing array at whichever
// width c is stored, so a test can check that two columns share one
// array rather than hold equal copies.
func CodesData(c *dataset.Codes) unsafe.Pointer {
	if c.IsWide() {
		return unsafe.Pointer(unsafe.SliceData(c.Wide()))
	}
	return unsafe.Pointer(unsafe.SliceData(c.Narrow()))
}
