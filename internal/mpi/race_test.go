//go:build race

package mpi

// raceBuild reports a build with the race detector, whose instrumentation
// keeps objects on the heap that the compiler otherwise keeps on the stack:
// a count of a boot's allocations per rank is only exact without it.
const raceBuild = true
