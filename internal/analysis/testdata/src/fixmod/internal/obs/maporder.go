// Fixture home of the obs maporder cases: report code is held to the same
// rule as the rest of the simulated world.
package obs

import (
	"maps"
	"slices"
)

// CountKinds is a commutative reduction, still a map walk — must flag.
func CountKinds(m map[Kind]int64) int64 {
	var total int64
	for _, n := range m {
		total += n
	}
	return total
}

// SortedKinds uses the one ordered idiom — must NOT flag.
func SortedKinds(m map[Kind]int64) []Kind {
	return slices.Sorted(maps.Keys(m))
}
