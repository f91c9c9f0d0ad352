package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"strings"
	"testing"
)

func TestBusFanOutInOrder(t *testing.T) {
	b := NewBus()
	var got []int64
	b.Subscribe(func(e Event) { got = append(got, e.A) })
	b.Subscribe(func(e Event) { got = append(got, -e.A) })
	b.Emit(Event{Kind: EvGauge, A: 1})
	b.Emit(Event{Kind: EvGauge, A: 2})
	want := []int64{1, -1, 2, -2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestDisabledEmitZeroAlloc pins the nil-sink fast path: with observability
// off (nil bus) an emission must not allocate at all.
func TestDisabledEmitZeroAlloc(t *testing.T) {
	var b *Bus
	allocs := testing.AllocsPerRun(100, func() {
		b.Emit(Event{T: 1, Kind: EvEagerSend, Rank: 3, Peer: 7, A: 1024, Name: "x"})
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %.1f times per call; want 0", allocs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	g := NewRegistry()
	h := g.Hist("lat", []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.counts[0] != 2 || h.counts[1] != 2 || h.counts[2] != 1 {
		t.Fatalf("bucket counts = %v, want [2 2 1]", h.counts)
	}
	if h.min != 5 || h.max != 1000 {
		t.Fatalf("min/max = %d/%d, want 5/1000", h.min, h.max)
	}
}

func TestRegistryDumpsAreDeterministic(t *testing.T) {
	build := func() *Registry {
		g := NewRegistry()
		g.Inc("zeta", 2)
		g.Inc("alpha", 1)
		g.SetGauge("g2", 5)
		g.SetGauge("g1", 9)
		g.SetGauge("g1", 3)
		g.Hist("h", []int64{10}).Observe(7)
		return g
	}
	var a, b, c bytes.Buffer
	build().WriteJSON(&a)
	build().WriteJSON(&b)
	if a.String() != b.String() {
		t.Fatalf("two identical registries render different JSON:\n%s\n%s", a.String(), b.String())
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("WriteJSON output is not valid JSON:\n%s", a.String())
	}
	build().WriteText(&c)
	txt := c.String()
	if strings.Index(txt, "alpha") > strings.Index(txt, "zeta") {
		t.Fatalf("text dump not sorted:\n%s", txt)
	}
	if !strings.Contains(txt, "(max 9)") {
		t.Fatalf("gauge max not tracked:\n%s", txt)
	}
}

func TestCollectorMatchesMessagesAndConnects(t *testing.T) {
	g := NewRegistry()
	c := NewCollector(g)
	b := NewBus()
	c.Attach(b)

	b.Emit(Event{T: 100, Kind: EvConnRequest, Rank: 0, Peer: 1, A: 42})
	b.Emit(Event{T: 400, Kind: EvConnUp, Rank: 0, Peer: 1, A: 42})
	b.Emit(Event{T: 1000, Kind: EvMsgSend, Rank: 0, Peer: 1, A: 64, C: 0})
	b.Emit(Event{T: 4000, Kind: EvMsgRecv, Rank: 1, Peer: 0, A: 64, C: 0})
	// Self-send: no latency sample.
	b.Emit(Event{T: 5000, Kind: EvMsgSend, Rank: 1, Peer: 1, A: 8, C: 0})

	if n := c.connect.Count(); n != 1 {
		t.Fatalf("connect samples = %d, want 1", n)
	}
	if c.connect.sum != 300 {
		t.Fatalf("connect time = %d, want 300", c.connect.sum)
	}
	if n := c.latency.Count(); n != 1 {
		t.Fatalf("latency samples = %d, want 1", n)
	}
	if c.latency.sum != 3000 {
		t.Fatalf("latency = %d, want 3000", c.latency.sum)
	}
	if got := g.Counter("events.msg.send"); got != 2 {
		t.Fatalf("events.msg.send = %d, want 2", got)
	}
}

// The collector folds every event of a traced run: once a kind's counters
// exist, folding one more of it allocates nothing — no counter name is built
// per event — and a kind past the table counts as unknown, as it always did.
func TestCollectorConsumeZeroAlloc(t *testing.T) {
	g := NewRegistry()
	c := NewCollector(g)
	e := Event{T: 1, Kind: EvCreditGrant, Rank: 0, Peer: 1, A: 2}
	c.Consume(e)
	if allocs := testing.AllocsPerRun(1000, func() { c.Consume(e) }); allocs != 0 {
		t.Fatalf("Consume of a warmed %s allocates %.1f times per call; want 0", e.Kind, allocs)
	}
	if got := g.Counter("events." + EvCreditGrant.String()); got != 1002 {
		t.Fatalf("events.%s = %d, want 1002", EvCreditGrant, got)
	}
	c.Consume(Event{Kind: EvRunEnd + 1})
	if got := g.Counter("events.unknown"); got != 1 {
		t.Fatalf("events.unknown = %d after one event of an unknown kind, want 1", got)
	}
}

func TestPerfettoExportIsValidJSON(t *testing.T) {
	r := NewRecorder()
	b := NewBus()
	r.Attach(b)
	b.Emit(Event{T: 1000, Kind: EvCallBegin, Rank: 0, Peer: -1, Name: "Send"})
	b.Emit(Event{T: 1500, Kind: EvConnRequest, Rank: 0, Peer: 1, A: 7})
	b.Emit(Event{T: 2500, Kind: EvConnUp, Rank: 0, Peer: 1, A: 7})
	b.Emit(Event{T: 3000, Kind: EvMsgSend, Rank: 0, Peer: 1, A: 64, B: 9, C: 0})
	b.Emit(Event{T: 4000, Kind: EvMsgRecv, Rank: 1, Peer: 0, A: 64, B: 9, C: 0})
	b.Emit(Event{T: 5000, Kind: EvCallEnd, Rank: 0, Peer: -1, Name: "Send"})
	r.NextRun("second")
	b.Emit(Event{T: 100, Kind: EvGauge, Rank: 1, Name: "pinned_bytes", A: 4096})

	var buf bytes.Buffer
	if err := r.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	for _, want := range []string{"M", "B", "E", "b", "e", "s", "f", "C"} {
		if phases[want] == 0 {
			t.Errorf("no %q phase events in export (got %v)", want, phases)
		}
	}
}

func TestRecorderRuns(t *testing.T) {
	r := NewRecorder()
	r.NextRun("relabel-empty") // must not create a ghost run
	b := NewBus()
	r.Attach(b)
	b.Emit(Event{T: 1, Kind: EvGauge, A: 1})
	r.NextRun("two")
	b.Emit(Event{T: 2, Kind: EvGauge, A: 2})
	b.Emit(Event{T: 3, Kind: EvGauge, A: 3})
	if len(r.runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(r.runs))
	}
	if r.runs[0].label != "relabel-empty" || len(r.runs[0].events) != 1 {
		t.Fatalf("run 0 = %+v", r.runs[0])
	}
	if r.Len() != 3 || len(r.Events()) != 2 {
		t.Fatalf("Len=%d Events=%d", r.Len(), len(r.Events()))
	}
	r.Detach()
	b.Emit(Event{T: 4, Kind: EvGauge, A: 4})
	if r.Len() != 3 {
		t.Fatalf("Len=%d after Detach, want 3", r.Len())
	}
}

// TestReportsRenderDetaches: Render unsubscribes the folds, so an event
// emitted after it changes nothing a second Render prints.
func TestReportsRenderDetaches(t *testing.T) {
	var r Reports
	fs := flag.NewFlagSet("reports", flag.ContinueOnError)
	r.Flags(fs)
	if err := fs.Parse([]string{"-matrix", "-profile", "-metrics", "-phases"}); err != nil {
		t.Fatal(err)
	}
	b := NewBus()
	r.Attach(b, 2)
	b.Emit(Event{T: 1, Kind: EvMsgSend, Rank: 0, Peer: 1, A: 8})
	var first, second bytes.Buffer
	if err := r.Render(&first, false); err != nil {
		t.Fatal(err)
	}
	b.Emit(Event{T: 2, Kind: EvMsgSend, Rank: 1, Peer: 0, A: 64})
	if err := r.Render(&second, false); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("an event after Render reached the reports:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
}

func TestPhaseTableResidual(t *testing.T) {
	table := NewPhaseTable()
	table.Consume(Event{Kind: EvPhase, Rank: 0, A: int64(PhaseCompute), B: 600})
	table.Consume(Event{Kind: EvPhase, Rank: 0, A: int64(PhaseConnect), B: 300})
	table.Consume(Event{Kind: EvRunEnd, T: 1000, Rank: -1, A: 1})
	var buf bytes.Buffer
	table.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "compute") || !strings.Contains(out, "credit-stall") {
		t.Fatalf("missing phase columns:\n%s", out)
	}
	// 600 + 300 charged of 1000 elapsed: residual 100 ns lands in "other".
	if !strings.Contains(out, "60.0%") || !strings.Contains(out, "30.0%") || !strings.Contains(out, "10.0%") {
		t.Fatalf("unexpected percentages:\n%s", out)
	}
}
