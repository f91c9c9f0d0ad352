package mpi

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"viampi/internal/obs"
)

// pingpongWorld runs a 2-rank ping-pong with the flight recorder attached
// and returns the recorder, ready for export.
func pingpongWorld(t *testing.T, cfg Config) *obs.Recorder {
	t.Helper()
	bus := obs.NewBus()
	rec := obs.NewRecorder()
	rec.Attach(bus)
	cfg.Obs = bus
	runWorld(t, cfg, func(r *Rank) {
		c := r.World()
		buf := make([]byte, 64)
		for i := 0; i < 4; i++ {
			if r.Rank() == 0 {
				if err := c.Send(1, 0, []byte("ping")); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Recv(buf, 1, 0); err != nil {
					t.Error(err)
					return
				}
			} else {
				if _, err := c.Recv(buf, 0, 0); err != nil {
					t.Error(err)
					return
				}
				if err := c.Send(0, 0, []byte("pong")); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	return rec
}

// TestPerfettoExportPingpong drives a 2-rank on-demand ping-pong through
// the exporter and checks the output is valid Chrome trace-event JSON with
// the structures a timeline needs: thread metadata per rank, MPI call
// spans, an async connection span, and matched message flow arrows.
func TestPerfettoExportPingpong(t *testing.T) {
	cfg := testCfg(2)
	cfg.Policy = "ondemand"
	rec := pingpongWorld(t, cfg)
	if rec.Len() == 0 {
		t.Fatal("recorder captured no events")
	}

	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, buf.String())
	}

	count := map[string]int{} // "ph/cat" -> occurrences
	flows := map[string][2]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		cat, _ := ev["cat"].(string)
		count[ph+"/"+cat]++
		if cat == "msg" {
			id, _ := ev["id"].(string)
			f := flows[id]
			if ph == "s" {
				f[0]++
			} else if ph == "f" {
				f[1]++
			}
			flows[id] = f
		}
	}
	// Both ranks must be named threads.
	if count["M/"] < 3 { // process_name + two thread_name records
		t.Fatalf("missing metadata records: %v", count)
	}
	if count["B/mpi"] == 0 || count["B/mpi"] != count["E/mpi"] {
		t.Fatalf("unbalanced MPI call spans: B=%d E=%d", count["B/mpi"], count["E/mpi"])
	}
	// On-demand must show at least one connection setup async span.
	if count["b/conn"] == 0 || count["e/conn"] == 0 {
		t.Fatalf("no connection async span in on-demand trace: %v", count)
	}
	// Every flow arrow must have exactly one start and one finish.
	if len(flows) != 8 { // 4 pings + 4 pongs
		t.Fatalf("flow arrow count = %d, want 8", len(flows))
	}
	for id, f := range flows {
		if f[0] != 1 || f[1] != 1 {
			t.Fatalf("flow %s has %d starts and %d finishes", id, f[0], f[1])
		}
	}
}

// TestPerfettoStaticHasNoLateConnects sanity-checks the policy contrast the
// trace is meant to expose: a static-mesh run still records connection
// spans, but all of them begin before the first user message is sent.
func TestPerfettoStaticHasNoLateConnects(t *testing.T) {
	cfg := testCfg(2)
	cfg.Policy = "static-p2p"
	rec := pingpongWorld(t, cfg)
	firstSend := int64(-1)
	lastConnStart := int64(-1)
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.EvMsgSend:
			if firstSend < 0 {
				firstSend = e.T
			}
		case obs.EvConnRequest:
			lastConnStart = e.T
		}
	}
	if firstSend < 0 || lastConnStart < 0 {
		t.Fatal("trace missing sends or connection requests")
	}
	if lastConnStart > firstSend {
		t.Fatalf("static policy opened a connection at t=%d after the first send at t=%d", lastConnStart, firstSend)
	}
}

// sendRecv is the one-message program of the report tests below: rank 0
// sends 32 bytes to rank 1.
func sendRecv(t *testing.T) func(r *Rank) {
	return func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			if err := c.Send(1, 0, make([]byte, 32)); err != nil {
				t.Error(err)
			}
		} else {
			if _, err := c.Recv(make([]byte, 64), 0, 0); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestProfileSpreadColumns pins the per-rank spread columns: a
// point-to-point call issued by one of two ranks must show imbalance 2.00
// and a zero rank-min, while the header names every column.
func TestProfileSpreadColumns(t *testing.T) {
	prof := profiledWorld(t, testCfg(2), sendRecv(t))
	var buf bytes.Buffer
	prof.WriteText(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	header := lines[0]
	for _, col := range []string{"call", "count", "total time", "avg", "rank min", "rank max", "imbal"} {
		if !strings.Contains(header, col) {
			t.Fatalf("header missing %q:\n%s", col, out)
		}
	}
	var sendLine string
	for _, ln := range lines[1:] {
		if strings.HasPrefix(ln, "Send") {
			sendLine = ln
		}
	}
	if sendLine == "" {
		t.Fatalf("no Send row:\n%s", out)
	}
	// Only rank 0 called Send, so max = total and imbal = max*2/total = 2.00.
	if !strings.HasSuffix(sendLine, "2.00") {
		t.Fatalf("Send imbalance not 2.00:\n%s", sendLine)
	}
	fields := strings.Fields(sendLine)
	// call count total avg min max imbal — rank min must be the zero duration.
	if fields[4] != "0s" {
		t.Fatalf("Send rank-min = %q, want 0s:\n%s", fields[4], sendLine)
	}
}

// TestPhaseTableFromRun checks the run epilogue feeds the phase fold: one
// row per rank, with time accounted into the connect column under on-demand.
func TestPhaseTableFromRun(t *testing.T) {
	cfg := testCfg(2)
	cfg.Policy = "ondemand"
	cfg.Obs = obs.NewBus()
	table := obs.NewPhaseTable()
	sub := cfg.Obs.Subscribe(table.Consume)
	defer cfg.Obs.Unsubscribe(sub)
	runWorld(t, cfg, sendRecv(t))
	var buf bytes.Buffer
	table.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "connect") || !strings.Contains(out, "rank") {
		t.Fatalf("phase table header:\n%s", out)
	}
	rows := 0
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(ln), "0") || strings.HasPrefix(strings.TrimSpace(ln), "1") {
			rows++
		}
	}
	if rows < 2 {
		t.Fatalf("expected a row per rank:\n%s", out)
	}
}

// TestNoPhasesWithoutBus: a run without a bus charges no phases and
// emits no epilogue, so there is nothing for a phase fold to render.
func TestNoPhasesWithoutBus(t *testing.T) {
	runWorld(t, testCfg(2), func(r *Rank) {
		if r.phases != nil {
			t.Error("phase accumulator built without Config.Obs")
		}
	})
	var buf bytes.Buffer
	obs.NewPhaseTable().WriteText(&buf)
	if !strings.Contains(buf.String(), "empty") {
		t.Fatalf("phase rendering without events: %s", buf.String())
	}
}
