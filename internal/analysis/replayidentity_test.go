package analysis

// The capture pipeline's contract, observed end to end: every report a live
// run renders (communication matrix, call profile, metrics, phase table,
// Perfetto trace) must be byte-identical when re-rendered offline from the
// run's capture bundle. Both sides go through obs.Reports — the one
// flag→attach→render path mpirun-sim and viampi-replay share — so this is
// what makes a bundle a faithful flight record: ship the .bin, regenerate
// everything else.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viampi/internal/apps"
	"viampi/internal/mpi"
	"viampi/internal/obs"
	"viampi/internal/obs/capture"
	"viampi/internal/simnet"
)

// artifacts are the rendered outputs under comparison: what obs.Reports
// printed, the trace file it wrote, and the registry's two machine formats
// (viampi-replay -csv/-json).
type artifacts struct {
	reports, perfetto, metricsCSV, metricsJSON string
}

// renderAll attaches all five reports (through their flags, as the binaries
// do) to bus for a job of world ranks, lets feed produce the event stream,
// and renders. tracePath is shared by the live and the replayed side so the
// trace receipt line is comparable too.
func renderAll(t *testing.T, bus *obs.Bus, world int, tracePath string, feed func()) artifacts {
	t.Helper()
	var reports obs.Reports
	fs := flag.NewFlagSet("reports", flag.ContinueOnError)
	reports.Flags(fs)
	if err := fs.Parse([]string{"-matrix", "-profile", "-metrics", "-phases", "-trace", tracePath}); err != nil {
		t.Fatal(err)
	}
	reports.Attach(bus, world)
	reg := obs.NewRegistry()
	obs.NewCollector(reg).Attach(bus)

	feed()

	var out, mc, mj bytes.Buffer
	if err := reports.Render(&out, false); err != nil {
		t.Fatalf("render: %v", err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	reg.WriteCSV(&mc)
	reg.WriteJSON(&mj)
	return artifacts{out.String(), string(trace), mc.String(), mj.String()}
}

func compareArtifacts(t *testing.T, live, replayed artifacts) {
	t.Helper()
	check := func(name, a, b string) {
		if a == b {
			return
		}
		// Find the first differing line for an actionable failure.
		la, lb := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
		for i := 0; i < len(la) && i < len(lb); i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Errorf("%s differs at line %d:\n  live:   %s\n  replay: %s", name, i+1, la[i], lb[i])
				return
			}
		}
		t.Errorf("%s differs in length: live %d bytes, replay %d bytes", name, len(a), len(b))
	}
	check("reports", live.reports, replayed.reports)
	check("perfetto trace", live.perfetto, replayed.perfetto)
	check("metrics CSV", live.metricsCSV, replayed.metricsCSV)
	check("metrics JSON", live.metricsJSON, replayed.metricsJSON)
}

// TestReplayReproducesLiveArtifacts is the record→replay identity matrix:
// 8 and 16 ranks under both connection-policy families, all five reports.
func TestReplayReproducesLiveArtifacts(t *testing.T) {
	const rounds, msgBytes = 2, 1024
	for _, policy := range []string{"static-p2p", "ondemand"} {
		for _, procs := range []int{8, 16} {
			t.Run(fmt.Sprintf("%s/p%d", policy, procs), func(t *testing.T) {
				tracePath := filepath.Join(t.TempDir(), "trace.json")
				cfg := mpi.Config{Procs: procs, Policy: policy, Seed: 42,
					Obs: obs.NewBus(), Deadline: 30 * simnet.Second}
				cw, bundle, err := attachCapture(&cfg, "CG.replay", rounds, msgBytes)
				if err != nil {
					t.Fatal(err)
				}
				live := renderAll(t, cfg.Obs, procs, tracePath, func() {
					if _, err := apps.Replay(apps.CG(), cfg, rounds, msgBytes); err != nil {
						t.Fatalf("replay (%s, %d procs): %v", policy, procs, err)
					}
				})
				if err := cw.Close(); err != nil {
					t.Fatalf("sealing bundle: %v", err)
				}

				b, err := capture.ReadBundle(bytes.NewReader(bundle.Bytes()))
				if err != nil {
					t.Fatalf("decoding bundle: %v", err)
				}
				bus := obs.NewBus()
				replayed := renderAll(t, bus, b.Header.World, tracePath, func() { b.EmitAll(bus) })

				compareArtifacts(t, live, replayed)
				for _, section := range []string{"communication matrix", "imbal", "counter events.msg.send", "progress-poll", "wrote "} {
					if !strings.Contains(live.reports, section) {
						t.Fatalf("live reports lack %q; the identity check would be vacuous:\n%s", section, live.reports)
					}
				}
				if live.perfetto == "" || live.metricsJSON == "" {
					t.Fatal("live artifacts empty; the identity check would be vacuous")
				}
			})
		}
	}
}
