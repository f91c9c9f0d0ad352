package obs

import (
	"fmt"
	"io"
	"sort"
)

// Phase decomposition: where a rank's virtual time went. This is the report
// that explains Figs 6–8 — an application that is "communication bound" or a
// mechanism whose cost is all connect time shows up directly as a column.
type Phase int

// The phases a rank's elapsed time decomposes into. Other is the residual
// (bootstrap, host copy charges, NIC service waits not attributable to a
// specific blocked reason).
const (
	PhaseCompute Phase = iota
	PhaseEager
	PhaseRendezvous
	PhaseConnect
	PhaseCreditStall
	PhaseProgress
	PhaseOther
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseEager:
		return "eager"
	case PhaseRendezvous:
		return "rendezvous"
	case PhaseConnect:
		return "connect"
	case PhaseCreditStall:
		return "credit-stall"
	case PhaseProgress:
		return "progress-poll"
	case PhaseOther:
		return "other"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Phases accumulates per-phase virtual nanoseconds for one rank. A nil
// *Phases ignores charges (observability off).
type Phases struct {
	Ns [NumPhases]int64
}

// Add charges d nanoseconds to phase p. Safe on a nil receiver.
func (ph *Phases) Add(p Phase, d int64) {
	if ph == nil || d <= 0 {
		return
	}
	ph.Ns[p] += d
}

// Total returns the sum of all charged phases.
func (ph *Phases) Total() int64 {
	if ph == nil {
		return 0
	}
	var t int64
	for _, v := range ph.Ns {
		t += v
	}
	return t
}

// PhaseTable folds the run epilogue mpi.Run emits — one EvPhase per (rank,
// phase) carrying the charged nanoseconds, then EvRunEnd carrying the
// elapsed time every row is normalized against — into the per-rank phase
// decomposition.
type PhaseTable struct {
	elapsed int64
	perRank map[int]*Phases
	ranks   []int // keys of perRank, in arrival order until rendered
}

// NewPhaseTable returns an empty phase table.
func NewPhaseTable() *PhaseTable {
	return &PhaseTable{perRank: map[int]*Phases{}}
}

// Consume notes one epilogue record.
func (t *PhaseTable) Consume(e Event) {
	switch e.Kind {
	case EvPhase:
		rank := int(e.Rank)
		p := t.perRank[rank]
		if p == nil {
			p = &Phases{}
			t.perRank[rank] = p
			t.ranks = append(t.ranks, rank)
		}
		if e.A >= 0 && e.A < int64(NumPhases) {
			p.Ns[e.A] = e.B
		}
	case EvRunEnd:
		t.elapsed = e.T
	default:
		// Protocol events carry no phase accounting.
	}
}

// WriteText renders the decomposition — where each rank's virtual time went:
// one row per rank in rank order, a column per phase (milliseconds and
// percent of elapsed), with "other" computed as the residual so the row
// always sums to the run's elapsed time.
func (t *PhaseTable) WriteText(w io.Writer) {
	if len(t.ranks) == 0 {
		fmt.Fprintln(w, "phases: empty (no run epilogue in the event stream)")
		return
	}
	sort.Ints(t.ranks)
	fmt.Fprintf(w, "%-5s %10s", "rank", "elapsed")
	for p := PhaseCompute; p < NumPhases; p++ {
		fmt.Fprintf(w, " %18s", p.String())
	}
	fmt.Fprintln(w)
	for _, rank := range t.ranks {
		ph := t.perRank[rank]
		fmt.Fprintf(w, "%-5d %8.2fms", rank, float64(t.elapsed)/1e6)
		for p := PhaseCompute; p < NumPhases; p++ {
			ns := ph.Ns[p]
			if p == PhaseOther {
				if resid := t.elapsed - ph.Total() + ph.Ns[PhaseOther]; resid > 0 {
					ns = resid
				}
			}
			pct := 0.0
			if t.elapsed > 0 {
				pct = 100 * float64(ns) / float64(t.elapsed)
			}
			fmt.Fprintf(w, " %10.2fms %5.1f%%", float64(ns)/1e6, pct)
		}
		fmt.Fprintln(w)
	}
}
