package mpi

import (
	"bytes"
	"strings"
	"testing"

	"viampi/internal/obs"
)

// profiledWorld runs main with the obs.CallProfile fold subscribed to the
// run's bus — the only way a per-call table is produced.
func profiledWorld(t *testing.T, cfg Config, main func(r *Rank)) *obs.CallProfile {
	t.Helper()
	cfg.Obs = obs.NewBus()
	prof := obs.NewCallProfile(cfg.Procs)
	sub := cfg.Obs.Subscribe(prof.Consume)
	defer cfg.Obs.Unsubscribe(sub)
	runWorld(t, cfg, main)
	return prof
}

func TestProfileAccounting(t *testing.T) {
	prof := profiledWorld(t, testCfg(4), func(r *Rank) {
		c := r.World()
		for i := 0; i < 10; i++ {
			if err := c.Barrier(); err != nil {
				t.Error(err)
				return
			}
		}
		if r.Rank() == 0 {
			if err := c.Send(1, 0, make([]byte, 100)); err != nil {
				t.Error(err)
			}
		} else if r.Rank() == 1 {
			buf := make([]byte, 128)
			if _, err := c.Recv(buf, 0, 0); err != nil {
				t.Error(err)
			}
		}
	})
	if got := prof.Calls("Barrier"); got != 4*10 {
		t.Fatalf("Barrier calls = %d, want 10 on each of 4 ranks", got)
	}
	if prof.Time("Barrier", 0) <= 0 {
		t.Fatal("Barrier time not accounted")
	}
	if got := prof.Calls("Send"); got != 1 {
		t.Fatalf("Send calls = %d", got)
	}
	// Nested Wait inside Barrier/Send must NOT appear separately.
	if prof.Calls("Wait") != 0 || prof.Calls("Waitall") != 0 {
		t.Fatalf("nested calls leaked into profile: Wait %d, Waitall %d", prof.Calls("Wait"), prof.Calls("Waitall"))
	}
	var buf bytes.Buffer
	prof.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "Barrier") || !strings.Contains(out, "call") {
		t.Fatalf("profile output:\n%s", out)
	}
}

// TestProfileDisabledByDefault: without a bus no rank carries a profiler,
// so the untraced path pays one nil branch per entry point and nothing else.
func TestProfileDisabledByDefault(t *testing.T) {
	runWorld(t, testCfg(2), func(r *Rank) {
		if r.prof != nil {
			t.Error("profiler built without Config.Obs")
		}
		if err := r.World().Barrier(); err != nil {
			t.Error(err)
		}
	})
}
