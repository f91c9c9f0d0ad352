// Package mpi is the fixture home of the maporder rule cases.
package mpi

import (
	"maps"
	"slices"
)

// BadAppend ranges a map and appends values — ordered output, must flag.
func BadAppend(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // maporder violation: values in map order
	}
	return out
}

// BadCollectNoSort collects keys but never sorts them — must flag.
func BadCollectNoSort(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// GoodSortedKeys is the one ordered idiom — must NOT flag.
func GoodSortedKeys(m map[int]string) []string {
	out := make([]string, 0, len(m))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		out = append(out, m[k])
	}
	return out
}

// BadAccumulate is a commutative reduction, still a map walk — must flag:
// the next edit to its body could leak the order.
func BadAccumulate(m map[int]int64) int64 {
	var total int64
	for _, n := range m {
		if n > 0 {
			total += n
		}
	}
	return total
}

// BadCall invokes another function per entry — ordering leaks, must flag.
func BadCall(m map[int]int, sink func(int)) {
	for k := range m {
		sink(k)
	}
}

// BadKeysIterator ranges the keys iterator itself — map order, must flag.
func BadKeysIterator(m map[int]int, sink func(int)) {
	for k := range maps.Keys(m) {
		sink(k)
	}
}

// BadCollectedKeys collects the iterator without sorting it — must flag.
func BadCollectedKeys(m map[int]int, sink func(int)) {
	for _, k := range slices.Collect(maps.Keys(m)) {
		sink(k)
	}
}
