//go:build !race

package mpi

// raceBuild reports a build with the race detector (see race_test.go).
const raceBuild = false
