package mpi

import (
	"testing"
)

func TestGathervScatterv(t *testing.T) {
	const n = 5
	runWorld(t, testCfg(n), func(r *Rank) {
		c := r.World()
		me := c.Rank()
		root := 2
		// Rank i contributes i+1 bytes of value 100+i.
		mine := make([]byte, me+1)
		for j := range mine {
			mine[j] = byte(100 + me)
		}
		counts := make([]int, n)
		displs := make([]int, n)
		total := 0
		for i := 0; i < n; i++ {
			counts[i] = i + 1
			displs[i] = total
			total += counts[i]
		}
		full := make([]byte, total)
		if err := c.Gatherv(mine, full, counts, displs, root); err != nil {
			t.Error(err)
			return
		}
		if me == root {
			for i := 0; i < n; i++ {
				for j := 0; j < counts[i]; j++ {
					if full[displs[i]+j] != byte(100+i) {
						t.Errorf("gatherv block %d corrupted", i)
						return
					}
				}
			}
			// Mutate and scatter back.
			for i := 0; i < n; i++ {
				for j := 0; j < counts[i]; j++ {
					full[displs[i]+j] = byte(200 + i)
				}
			}
		}
		out := make([]byte, me+1)
		if err := c.Scatterv(full, counts, displs, out, root); err != nil {
			t.Error(err)
			return
		}
		for j := range out {
			if out[j] != byte(200+me) {
				t.Errorf("rank %d scatterv got %d", me, out[j])
				return
			}
		}
	})
}

func TestAllgatherv(t *testing.T) {
	const n = 4
	runWorld(t, testCfg(n), func(r *Rank) {
		c := r.World()
		me := c.Rank()
		counts := []int{2, 4, 6, 8}
		displs := []int{0, 2, 6, 12}
		mine := make([]byte, counts[me])
		for j := range mine {
			mine[j] = byte(me*10 + j)
		}
		out := make([]byte, 20)
		if err := c.Allgatherv(mine, out, counts, displs); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			for j := 0; j < counts[i]; j++ {
				if out[displs[i]+j] != byte(i*10+j) {
					t.Errorf("rank %d: allgatherv block %d byte %d = %d", me, i, j, out[displs[i]+j])
					return
				}
			}
		}
	})
}
