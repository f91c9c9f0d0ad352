package mpi_test

import (
	"fmt"

	"viampi/internal/mpi"
	"viampi/internal/simnet"
)

// Allreduce across 4 simulated ranks under on-demand connection management.
func ExampleComm_Allreduce() {
	w, err := mpi.Run(mpi.Config{Procs: 4, Deadline: 10 * simnet.Second}, func(r *mpi.Rank) {
		sum := []float64{float64(r.Rank())}
		if err := r.World().AllreduceF64(sum, mpi.SumF64); err != nil {
			fmt.Println("error:", err)
			return
		}
		if r.Rank() == 0 {
			fmt.Printf("sum of ranks = %.0f\n", sum[0])
		}
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("VIs per rank (recursive doubling): %.0f\n", w.AvgVIs())
	// Output:
	// sum of ranks = 6
	// VIs per rank (recursive doubling): 2
}

// One-sided Put through a window, visible after the fence.
func ExampleWin() {
	_, err := mpi.Run(mpi.Config{Procs: 2, Deadline: 10 * simnet.Second}, func(r *mpi.Rank) {
		c := r.World()
		buf := make([]byte, 8)
		w, err := c.WinCreate(buf)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if r.Rank() == 0 {
			if err := w.Put(1, 0, []byte("rdma!")); err != nil {
				fmt.Println("error:", err)
				return
			}
		}
		if err := w.Fence(); err != nil {
			fmt.Println("error:", err)
			return
		}
		if r.Rank() == 1 {
			fmt.Printf("window holds %q\n", buf[:5])
		}
		if err := w.Free(); err != nil {
			fmt.Println("error:", err)
		}
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// window holds "rdma!"
}
