package tcpvia

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"viampi/internal/obs"
	"viampi/internal/obs/capture"
)

func wallHeader(rank int) capture.Header {
	return capture.Header{
		World:  2,
		Device: "tcpvia",
		Policy: "ondemand",
		Label:  "eventlog.test",
		Config: "test",
		Seed:   int64(rank),
	}
}

func TestEventLogRequiresASink(t *testing.T) {
	if _, err := NewEventLog(wallHeader(0), 0); err == nil {
		t.Fatal("ringless event log accepted")
	}
}

// TestEventLogStream runs a two-rank on-demand exchange with flight
// recorders attached and checks the dumped bundles decode, with nothing
// evicted, to the protocol story: VI creation, the dial (or its adoption),
// channel-up, and the data transfer, all stamped with wall-clock time.
func TestEventLogStream(t *testing.T) {
	nodes := []*Node{newNode(t), newNode(t)}
	peers := []string{nodes[0].Addr(), nodes[1].Addr()}
	logs := make([]*EventLog, 2)
	mgrs := make([]*Manager, 2)
	for i := range mgrs {
		log, err := NewEventLog(wallHeader(i), 4096)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = log
		m, err := NewManager(ManagerConfig{
			Node: nodes[i], Rank: i, Peers: peers, Policy: "ondemand",
			Timeout: tmo, Log: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgrs[i] = m
	}
	t.Cleanup(func() {
		for _, m := range mgrs {
			m.Close()
		}
	})

	// The send parks behind the dial it starts (it goes first, so the
	// receiver's own dial cannot have brought the channel up already), and
	// the sender's Close flushes it.
	if err := mgrs[0].Send(1, []byte("recorded")); err != nil {
		t.Fatal(err)
	}
	closed := own(func() error {
		mgrs[0].Close()
		return nil
	})
	if got, err := mgrs[1].Recv(0, tmo); err != nil || string(got) != "recorded" {
		t.Fatalf("recv: %q %v", got, err)
	}
	<-closed

	bundles := make([]*capture.Bundle, 2)
	for i, log := range logs {
		var out bytes.Buffer
		_, dropped, err := log.DumpRing(&out)
		if err != nil {
			t.Fatalf("dumping log %d: %v", i, err)
		}
		if dropped != 0 {
			t.Fatalf("log %d evicted %d events", i, dropped)
		}
		b, err := capture.ReadBundle(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("decoding bundle %d: %v", i, err)
		}
		if b.Header.Clock != capture.ClockWall {
			t.Fatalf("bundle %d clock = %v, want wall", i, b.Header.Clock)
		}
		bundles[i] = b
	}

	kinds := func(b *capture.Bundle) map[obs.Kind]int {
		m := map[obs.Kind]int{}
		for _, e := range b.Events {
			m[e.Kind]++
		}
		return m
	}
	k0, k1 := kinds(bundles[0]), kinds(bundles[1])
	// The sender parked its first message behind the dial; the receiver saw
	// the request arrive (adoption or its own receiver-side dial) and the
	// payload.
	if k0[obs.EvViCreate] == 0 || k0[obs.EvFifoPark] == 0 || k0[obs.EvConnUp] == 0 || k0[obs.EvFifoDrain] == 0 {
		t.Fatalf("sender story incomplete: %v", k0)
	}
	if k1[obs.EvViCreate] == 0 || k1[obs.EvConnUp] == 0 || k1[obs.EvMsgRecv] == 0 {
		t.Fatalf("receiver story incomplete: %v", k1)
	}
	if k0[obs.EvConnRequest]+k1[obs.EvConnAccept] == 0 {
		t.Fatalf("no dial recorded on either side: %v / %v", k0, k1)
	}
	// Wall-clock stamps are monotone within one log (a single mutex orders
	// every emission).
	for i, b := range bundles {
		last := int64(-1)
		for j, e := range b.Events {
			if e.T < last {
				t.Fatalf("bundle %d event %d: time went backwards (%d < %d)", i, j, e.T, last)
			}
			last = e.T
		}
		for _, e := range b.Events {
			if int(e.Rank) != i {
				t.Fatalf("bundle %d carries an event from rank %d", i, e.Rank)
			}
		}
	}
}

// TestEventLogRingDump: the bounded postmortem mode retains exactly the most
// recent events and dumps them as a complete, decodable bundle.
func TestEventLogRingDump(t *testing.T) {
	const cap, total = 64, 500
	log, err := NewEventLog(wallHeader(0), cap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		log.Emit(obs.EvMsgSend, 0, 1, int64(i), 0, 0, "")
	}
	var out bytes.Buffer
	kept, dropped, err := log.DumpRing(&out)
	if err != nil {
		t.Fatal(err)
	}
	if kept != cap || dropped != total-cap {
		t.Fatalf("kept %d dropped %d, want %d / %d", kept, dropped, cap, total-cap)
	}
	b, err := capture.ReadBundle(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != cap {
		t.Fatalf("dumped %d events", len(b.Events))
	}
	for i, e := range b.Events {
		if e.A != int64(total-cap+i) {
			t.Fatalf("event %d carries A=%d, want %d (oldest-first order)", i, e.A, total-cap+i)
		}
	}
}

// TestEventLogUsableAfterDump: a dump releases the log, so the owner's next
// Emit and the snapshot loop's next WriteMetricsJSON go through (a
// flush-on-signal dump runs while the ranks still emit). A dump that kept
// the lock would hang them, so the calls run on a goroutine and the test
// bounds the wait.
func TestEventLogUsableAfterDump(t *testing.T) {
	log, err := NewEventLog(wallHeader(0), 8)
	if err != nil {
		t.Fatal(err)
	}
	log.Emit(obs.EvMsgSend, 0, 1, 0, 0, 0, "")
	done := make(chan string, 1)
	go func() {
		if _, _, err := log.DumpRing(&bytes.Buffer{}); err != nil {
			done <- err.Error()
			return
		}
		log.Emit(obs.EvMsgSend, 0, 1, 1, 0, 0, "")
		var doc bytes.Buffer
		if err := log.WriteMetricsJSON(&doc); err != nil {
			done <- err.Error()
			return
		}
		done <- doc.String()
	}()
	select {
	case doc := <-done:
		if !strings.Contains(doc, `"events.msg.send":2`) {
			t.Fatalf("metrics after a dump do not count both sends:\n%s", doc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Emit or WriteMetricsJSON still blocked 5 s after DumpRing returned: the dump kept the log's lock")
	}
}

// TestEventLogConcurrentEmit hammers one log from many goroutines; under
// -race this is the data-race check, and the ring must retain exactly its
// capacity afterwards.
func TestEventLogConcurrentEmit(t *testing.T) {
	const workers, each = 8, 200
	log, err := NewEventLog(wallHeader(0), 128)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				log.Emit(obs.EvMsgSend, int32(w), -1, int64(i), 0, 0, "")
			}
		}()
	}
	wg.Wait()
	var out bytes.Buffer
	kept, dropped, err := log.DumpRing(&out)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 128 || dropped != workers*each-128 {
		t.Fatalf("kept %d dropped %d", kept, dropped)
	}
	if _, err := capture.ReadBundle(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("post-stress dump not decodable: %v", err)
	}
}

// TestNilEventLogIsInert: every method is a no-op on nil, so the manager can
// call unconditionally.
func TestNilEventLogIsInert(t *testing.T) {
	var log *EventLog
	log.Emit(obs.EvMsgSend, 0, 1, 0, 0, 0, "")
	if kept, dropped, err := log.DumpRing(&bytes.Buffer{}); kept != 0 || dropped != 0 || err != nil {
		t.Fatal("nil DumpRing not inert")
	}
}

// TestManagerMetricsSnapshots: the periodic snapshot loop writes the log's
// metrics as JSON documents — under the obs.Collector key names, the same
// keys mpirun-sim -metrics prints — including one final snapshot at Close.
func TestManagerMetricsSnapshots(t *testing.T) {
	var snaps bytes.Buffer
	snapshotPair(t, &snaps)
	got := snaps.String()
	if strings.Count(got, "{\"counters\"") < 2 {
		t.Fatalf("expected multiple snapshots, got:\n%s", got)
	}
	last := got[strings.LastIndex(got, "{\"counters\""):]
	for _, key := range []string{`"events.vi.create":1`, `"events.fifo.park":1`, `"events.conn.up":1`, `"fifo.drained_total":1`, `"fifo.depth":{"cur":1,"max":1}`} {
		if !strings.Contains(last, key) {
			t.Fatalf("final snapshot lacks %s:\n%s", key, last)
		}
	}
	if strings.Contains(got, "tcpvia.") {
		t.Fatalf("snapshot still carries a tcpvia.* counter:\n%s", got)
	}
}

// snapshotPair runs two on-demand managers, rank 0 with a flight recorder
// that snapshots its metrics to snaps every 5 ms: rank 0 sends one message,
// which stays parked for a few ticks until its Close flushes it, and rank 1
// receives it. Both managers are closed on return.
func snapshotPair(t *testing.T, snaps *bytes.Buffer) {
	t.Helper()
	nodes := []*Node{newNode(t), newNode(t)}
	peers := []string{nodes[0].Addr(), nodes[1].Addr()}
	mgrs := make([]*Manager, 2)
	for i := range mgrs {
		cfg := ManagerConfig{
			Node: nodes[i], Rank: i, Peers: peers, Policy: "ondemand",
			Timeout: tmo,
		}
		if i == 0 {
			log, err := NewEventLog(wallHeader(i), 64)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Log = log
			cfg.SnapshotEvery = 5 * time.Millisecond
			cfg.SnapshotTo = snaps
		}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mgrs[i] = m
		t.Cleanup(m.Close)
	}
	if err := mgrs[0].Send(1, []byte("tick")); err != nil {
		t.Fatal(err)
	}
	closed := own(func() error {
		time.Sleep(25 * time.Millisecond)
		mgrs[0].Close() // flushes the FIFO, then stops the loop after one final snapshot
		return nil
	})
	if _, err := mgrs[1].Recv(0, tmo); err != nil {
		t.Fatal(err)
	}
	<-closed
	mgrs[1].Close()
}
