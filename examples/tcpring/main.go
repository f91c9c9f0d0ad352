// Tcpring runs the paper's mechanism on a real network: N tcpvia nodes on
// TCP loopback pass a token around a ring under both static and on-demand
// connection management, reporting wall-clock latency and — the paper's
// point — how many connections each policy actually built.
//
// With -record it doubles as a demo of the live flight recorder: every
// node's connection and message events are kept in a bounded in-memory ring
// (wall-clock stamps) and dumped as capture bundles at exit — or on
// SIGINT/SIGTERM, or on a crash — for offline inspection with
// viampi-replay. -snapshot tails rank 0's metrics to a file as periodic JSON
// while the run is live: the flight recorder's events folded by the same
// obs.Collector behind mpirun-sim -metrics, so the keys are the simulator's
// ("events.conn.up", "events.fifo.park", "fifo.drained_total", ...).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"viampi/internal/obs/capture"
	"viampi/internal/tcpvia"
)

var (
	np       = flag.Int("np", 6, "number of nodes")
	laps     = flag.Int("laps", 50, "times the token circles the ring")
	record   = flag.String("record", "", "dump per-node flight-recorder bundles to `dir` (on exit, signal, or crash)")
	ringCap  = flag.Int("ring", 4096, "events retained per node's flight-recorder ring")
	snapshot = flag.String("snapshot", "", "append periodic metrics JSON snapshots to `file`")
	snapMs   = flag.Int("snapshot-ms", 200, "snapshot interval in milliseconds")
)

// flightLogs collects every live EventLog so one dump covers all nodes of
// the current policy round.
var (
	flightMu   sync.Mutex
	flightLogs map[string]*tcpvia.EventLog // bundle filename -> log
)

// dumpFlightRecorders writes each registered ring to its bundle file. Safe
// to call from the signal handler or the crash path.
func dumpFlightRecorders(reason string) {
	flightMu.Lock()
	defer flightMu.Unlock()
	if len(flightLogs) == 0 {
		return
	}
	for name, l := range flightLogs {
		path := *record + "/" + name
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flight dump %s: %v\n", path, err)
			continue
		}
		kept, dropped, err := l.DumpRing(f)
		cerr := f.Close()
		if err != nil || cerr != nil {
			fmt.Fprintf(os.Stderr, "flight dump %s: %v %v\n", path, err, cerr)
			continue
		}
		fmt.Fprintf(os.Stderr, "flight recorder (%s): %s — %d events kept, %d evicted\n",
			reason, path, kept, dropped)
	}
	flightLogs = map[string]*tcpvia.EventLog{}
}

func main() {
	flag.Parse()

	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			log.Fatal(err)
		}
		flightLogs = map[string]*tcpvia.EventLog{}
		// Flush-on-signal: an interrupted run still leaves its bundles.
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			s := <-sigs
			dumpFlightRecorders(s.String())
			os.Exit(1)
		}()
		// Flush-on-crash: a panic dumps the rings before dying.
		defer func() {
			if r := recover(); r != nil {
				dumpFlightRecorders("panic")
				panic(r)
			}
		}()
	}

	var snapOut io.Writer
	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		snapOut = f
	}

	for _, policy := range []string{"static", "ondemand"} {
		nodes := make([]*tcpvia.Node, *np)
		peers := make([]string, *np)
		for i := range nodes {
			n, err := tcpvia.Listen(tcpvia.Config{})
			if err != nil {
				log.Fatal(err)
			}
			nodes[i] = n
			peers[i] = n.Addr()
		}
		logs := make([]*tcpvia.EventLog, *np)
		for i := range logs {
			// The snapshot is written from rank 0's log, so -snapshot needs
			// that one even when nothing is dumped.
			if *record != "" || (i == 0 && snapOut != nil) {
				l, err := tcpvia.NewEventLog(capture.Header{
					World:  *np,
					Device: "tcpvia",
					Policy: policy,
					Label:  "tcpring",
					Config: fmt.Sprintf("np=%d laps=%d policy=%s rank=%d", *np, *laps, policy, i),
				}, *ringCap)
				if err != nil {
					log.Fatal(err)
				}
				logs[i] = l
				if *record != "" {
					flightMu.Lock()
					flightLogs[fmt.Sprintf("tcpring-%s-rank%d.bin", policy, i)] = l
					flightMu.Unlock()
				}
			}
		}
		mgrs := make([]*tcpvia.Manager, *np)
		var wg sync.WaitGroup
		setup := time.Now()
		for i := range nodes {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := tcpvia.ManagerConfig{
					Node: nodes[i], Rank: i, Peers: peers, Policy: policy,
					Timeout: 10 * time.Second, Log: logs[i],
				}
				if i == 0 && snapOut != nil {
					cfg.SnapshotEvery = time.Duration(*snapMs) * time.Millisecond
					cfg.SnapshotTo = snapOut
				}
				m, err := tcpvia.NewManager(cfg)
				if err != nil {
					log.Fatalf("manager %d: %v", i, err)
				}
				mgrs[i] = m
			}()
		}
		wg.Wait()
		setupTime := time.Since(setup)

		// Forwarders: every node passes the token to its right neighbour.
		for i := 1; i < *np; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A manager progresses only inside its calls, so a forwarder
				// closes its own when done, as a rank calls MPI_Finalize: its
				// last send may still be parked behind a handshake, and Close
				// flushes it.
				defer mgrs[i].Close()
				for lap := 0; lap < *laps; lap++ {
					tok, err := mgrs[i].Recv((i-1+*np)%*np, 10*time.Second)
					if err != nil {
						log.Fatalf("node %d: %v", i, err)
					}
					if err := mgrs[i].Send((i+1)%*np, tok); err != nil {
						log.Fatalf("node %d: %v", i, err)
					}
				}
			}()
		}

		start := time.Now()
		for lap := 0; lap < *laps; lap++ {
			if err := mgrs[0].Send(1, []byte(fmt.Sprintf("lap-%d", lap))); err != nil {
				log.Fatal(err)
			}
			if _, err := mgrs[0].Recv(*np-1, 10*time.Second); err != nil {
				log.Fatal(err)
			}
		}
		perHop := time.Since(start) / time.Duration(*laps**np)
		wg.Wait()

		conns := 0
		vis := 0
		for _, m := range mgrs {
			conns += m.Connections()
		}
		for _, n := range nodes {
			vis += n.Stats().VisCreated
		}
		fmt.Printf("%-9s setup %8v   per-hop latency %8v   connections %2d   VIs %2d (of %d possible)\n",
			policy, setupTime.Round(time.Microsecond), perHop.Round(time.Microsecond),
			conns/2, vis, *np*(*np-1))
		for _, m := range mgrs {
			m.Close()
		}
		for _, n := range nodes {
			n.Close()
		}
		if *record != "" {
			dumpFlightRecorders("exit:" + policy)
		}
	}
}
