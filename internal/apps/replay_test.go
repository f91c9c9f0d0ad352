package apps

import (
	"testing"

	"viampi/internal/mpi"
	"viampi/internal/obs"
	"viampi/internal/simnet"
)

func replayCfg(procs int) mpi.Config {
	return mpi.Config{Procs: procs, Policy: "ondemand", Deadline: 300 * simnet.Second}
}

// TestReplayTracesMatchAnalytic: replaying a pattern and tracing it must
// measure exactly the analytic Table 1 destination averages.
func TestReplayTracesMatchAnalytic(t *testing.T) {
	const n = 16
	for _, p := range All() {
		rec := obs.NewMatrix(n)
		cfg := replayCfg(n)
		cfg.Obs = obs.NewBus()
		cfg.Obs.Subscribe(rec.Consume)
		if _, err := Replay(p, cfg, 2, 64); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got, want := rec.AvgDests(), AvgDests(p, n); got != want {
			t.Errorf("%s: traced avg dests %.3f != analytic %.3f", p.Name, got, want)
		}
	}
}

// TestReplayOnDemandVIsMatchNeighborhood: under on-demand, each rank's VI
// count equals the size of its undirected neighbourhood (out ∪ in).
func TestReplayOnDemandVIsMatchNeighborhood(t *testing.T) {
	const n = 16
	for _, p := range []Pattern{Sweep3D(), SPPM(), Sphot()} {
		w, err := Replay(p, replayCfg(n), 2, 64)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for rank, rs := range w.Ranks {
			want := map[int]bool{}
			for _, d := range p.Dests(rank, n) {
				want[d] = true
			}
			for s := 0; s < n; s++ {
				for _, d := range p.Dests(s, n) {
					if d == rank {
						want[s] = true
					}
				}
			}
			if rs.VisCreated != len(want) {
				t.Errorf("%s rank %d: VIs %d != neighbourhood %d", p.Name, rank, rs.VisCreated, len(want))
			}
		}
	}
}

// TestReplayStaticWastes: the same replays under static create N-1 VIs per
// rank regardless of the pattern — Table 2's waste, driven by Table 1's
// applications.
func TestReplayStaticWastes(t *testing.T) {
	const n = 12
	cfg := replayCfg(n)
	cfg.Policy = "static-p2p"
	w, err := Replay(Sweep3D(), cfg, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if w.AvgVIs() != n-1 {
		t.Fatalf("static avg VIs = %v", w.AvgVIs())
	}
	if w.AvgUtilization() > 0.5 {
		t.Fatalf("static utilization = %v, want low for Sweep3D", w.AvgUtilization())
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := Replay(Sphot(), mpi.Config{}, 1, 1); err == nil {
		t.Fatal("missing Procs accepted")
	}
}
