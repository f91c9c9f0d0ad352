package obs

import (
	"fmt"
	"io"
)

// Matrix folds EvMsgSend into the communication matrix of a job: who sent
// how many messages and bytes to whom. The paper's whole argument rests on
// communication locality (Table 1's distinct-destination counts, Table 2's
// VI utilization); this fold makes that locality visible for any run, live
// or replayed.
type Matrix struct {
	msgs  [][]int64 // [src][dst] message counts
	bytes [][]int64
}

// NewMatrix returns an empty matrix for a job of size ranks.
func NewMatrix(size int) *Matrix {
	m := &Matrix{msgs: make([][]int64, size), bytes: make([][]int64, size)}
	for i := range m.msgs {
		m.msgs[i] = make([]int64, size)
		m.bytes[i] = make([]int64, size)
	}
	return m
}

// Consume notes one user-level send; every other kind, and a send naming a
// rank outside the job, is ignored.
func (m *Matrix) Consume(e Event) {
	n := int32(len(m.msgs))
	if e.Kind != EvMsgSend || e.Rank < 0 || e.Rank >= n || e.Peer < 0 || e.Peer >= n {
		return
	}
	m.msgs[e.Rank][e.Peer]++
	m.bytes[e.Rank][e.Peer] += e.A
}

// Messages returns the message count from src to dst.
func (m *Matrix) Messages(src, dst int) int64 { return m.msgs[src][dst] }

// Bytes returns the byte count from src to dst.
func (m *Matrix) Bytes(src, dst int) int64 { return m.bytes[src][dst] }

// Dests returns the ascending distinct destinations of a rank — the Table 1
// metric for one process.
func (m *Matrix) Dests(rank int) []int {
	var ds []int
	for d, n := range m.msgs[rank] {
		if n > 0 && d != rank {
			ds = append(ds, d)
		}
	}
	return ds
}

// destCounts returns the sum and the maximum of the per-rank
// distinct-destination counts.
func (m *Matrix) destCounts() (total, max int) {
	for src, row := range m.msgs {
		dests := 0
		for dst, n := range row {
			if n > 0 && dst != src {
				dests++
			}
		}
		total += dests
		if dests > max {
			max = dests
		}
	}
	return total, max
}

// AvgDests returns the average distinct-destination count across ranks.
func (m *Matrix) AvgDests() float64 {
	total, _ := m.destCounts()
	return float64(total) / float64(len(m.msgs))
}

// MaxDests returns the largest per-rank destination count.
func (m *Matrix) MaxDests() int {
	_, max := m.destCounts()
	return max
}

// TotalMessages sums all recorded messages.
func (m *Matrix) TotalMessages() int64 { return sum2(m.msgs) }

// TotalBytes sums all recorded bytes.
func (m *Matrix) TotalBytes() int64 { return sum2(m.bytes) }

func sum2(rows [][]int64) int64 {
	var t int64
	for _, row := range rows {
		for _, n := range row {
			t += n
		}
	}
	return t
}

// Density is the fraction of ordered rank pairs that exchanged at least one
// message — 1.0 for a fully-connected pattern like alltoall.
func (m *Matrix) Density() float64 {
	size := len(m.msgs)
	if size < 2 {
		return 0
	}
	total, _ := m.destCounts()
	return float64(total) / float64(size*(size-1))
}

// WriteText renders an ASCII heat map of the message-count matrix ('.'
// none, then '1'..'9' for increasing decades of messages) followed by the
// aggregate locality statistics.
func (m *Matrix) WriteText(w io.Writer) {
	size := len(m.msgs)
	fmt.Fprintf(w, "communication matrix (%d ranks, rows=src, cols=dst; log10 scale)\n", size)
	fmt.Fprint(w, "     ")
	for d := 0; d < size; d++ {
		fmt.Fprintf(w, "%d", d%10)
	}
	fmt.Fprintln(w)
	for s, row := range m.msgs {
		fmt.Fprintf(w, "%4d ", s)
		for _, n := range row {
			fmt.Fprint(w, cellChar(n))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "messages: %d, bytes: %d\n", m.TotalMessages(), m.TotalBytes())
	fmt.Fprintf(w, "avg distinct destinations/rank: %.2f (max %d of %d possible)\n",
		m.AvgDests(), m.MaxDests(), size-1)
	fmt.Fprintf(w, "pair density: %.2f\n", m.Density())
}

func cellChar(n int64) string {
	if n <= 0 {
		return "."
	}
	decade := 1
	for n >= 10 {
		n /= 10
		decade++
	}
	if decade > 9 {
		decade = 9
	}
	return fmt.Sprint(decade)
}
