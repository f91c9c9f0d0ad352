// Package via is the fixture home of the layering case and of the exhaustive
// rule's enum cases (enum.go).
package via

import (
	"fixmod/internal/mpi" // layering violation: via may not import mpi
)

// Upward exists so the mpi import is used.
func Upward(m map[int]string) []string { return mpi.GoodSortedKeys(m) }
