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
