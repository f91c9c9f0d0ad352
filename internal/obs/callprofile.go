package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// CallProfile folds the MPI call spans (EvCallBegin/EvCallEnd) into per-call
// time accounting — the moral equivalent of PMPI. The paper's analysis style
// ("IS is communication bound", "MG calls barrier, allreduce and bcast")
// comes straight out of this kind of table. Only outermost entry points emit
// spans, so a Waitall inside Alltoall is charged to Alltoall and a rank has
// at most one span open.
type CallProfile struct {
	open   []int64            // per rank: begin time of the open span
	calls  map[string]int64   // call name -> spans closed, all ranks
	byRank map[string][]int64 // call name -> nanoseconds, indexed by rank
}

// NewCallProfile returns an empty profile for a job of size ranks.
func NewCallProfile(size int) *CallProfile {
	return &CallProfile{
		open:   make([]int64, size),
		calls:  map[string]int64{},
		byRank: map[string][]int64{},
	}
}

// Consume opens or closes one call span; every other kind, and a span on a
// rank outside the job, is ignored.
func (p *CallProfile) Consume(e Event) {
	if e.Rank < 0 || int(e.Rank) >= len(p.open) {
		return
	}
	switch e.Kind {
	case EvCallBegin:
		p.open[e.Rank] = e.T
	case EvCallEnd:
		v := p.byRank[e.Name]
		if v == nil {
			v = make([]int64, len(p.open))
			p.byRank[e.Name] = v
		}
		v[e.Rank] += e.T - p.open[e.Rank]
		p.calls[e.Name]++
	default:
		// Not a call span.
	}
}

// Calls returns how many spans of the named call closed, summed over ranks.
func (p *CallProfile) Calls(name string) int64 { return p.calls[name] }

// Time returns the virtual nanoseconds rank spent inside the named call.
func (p *CallProfile) Time(name string, rank int) int64 {
	if v := p.byRank[name]; v != nil {
		return v[rank]
	}
	return 0
}

// WriteText renders the rank-aggregated profile: per entry point, total
// calls and virtual time across all ranks (sorted by time), plus the
// per-rank spread — the fastest and slowest single-rank totals and the
// imbalance ratio max/avg (1.00 = perfectly balanced; ranks that never
// issued the call count as zero time, so a point-to-point call concentrated
// on one rank shows its concentration here).
func (p *CallProfile) WriteText(w io.Writer) {
	if len(p.byRank) == 0 {
		fmt.Fprintln(w, "profile: empty (no MPI call spans in the event stream)")
		return
	}
	names := sortedKeys(p.byRank)
	total := make(map[string]int64, len(names))
	for _, n := range names {
		for _, t := range p.byRank[n] {
			total[n] += t
		}
	}
	sort.SliceStable(names, func(i, j int) bool { return total[names[i]] > total[names[j]] })
	dur := func(ns int64) string { return time.Duration(ns).String() }
	fmt.Fprintf(w, "%-12s %10s %14s %12s %12s %12s %7s\n",
		"call", "count", "total time", "avg", "rank min", "rank max", "imbal")
	for _, n := range names {
		v := p.byRank[n]
		min, max := v[0], v[0]
		for _, t := range v[1:] {
			if t < min {
				min = t
			}
			if t > max {
				max = t
			}
		}
		imbal := 1.0
		if total[n] > 0 {
			imbal = float64(max) * float64(len(v)) / float64(total[n])
		}
		fmt.Fprintf(w, "%-12s %10d %14s %12s %12s %12s %7.2f\n",
			n, p.calls[n], dur(total[n]), dur(total[n]/p.calls[n]), dur(min), dur(max), imbal)
	}
}
