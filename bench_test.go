package viampi

// Go benchmarks that report what nothing else does: the ping-pong and NPB
// kernels' virtual-time metrics per device and mechanism, the ablations of
// DESIGN.md's tunables (eager threshold, credit count, spin budget, dynamic
// credits), and the allocation rails (`make bench-sim`). The paper's tables and figures have no benchmark here: `go run
// ./cmd/figures` regenerates them, internal/bench's TestGolden pins their
// quick-mode bytes, and host time is benchmark/'s to measure.

import (
	"runtime"
	"strconv"
	"testing"

	"viampi/internal/bench"
	"viampi/internal/mpi"
	"viampi/internal/npb"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// BenchmarkPingpong reports the simulated one-way latency per device and
// mechanism as a custom metric (virtual_us).
func BenchmarkPingpong(b *testing.B) {
	for _, device := range []string{"clan", "bvia"} {
		for _, mech := range []bench.Mechanism{bench.StaticPolling, bench.OnDemand} {
			b.Run(device+"/"+mech.Name, func(b *testing.B) {
				var lat simnet.Duration
				for i := 0; i < b.N; i++ {
					l, err := bench.Pingpong(device, mech, 4, 20, 0, 1)
					if err != nil {
						b.Fatal(err)
					}
					lat = l
				}
				b.ReportMetric(lat.Micros(), "virtual_us")
			})
		}
	}
}

// BenchmarkAblation_EagerThreshold sweeps the eager/rendezvous switch point
// (DESIGN.md decision 5): the paper observes the default 5000 is too low.
func BenchmarkAblation_EagerThreshold(b *testing.B) {
	for _, thresh := range []int{1000, 5000, 16000, 64000} {
		b.Run(strconv.Itoa(thresh), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				var innerErr error
				cfg := mpi.Config{
					Procs: 2, EagerThreshold: thresh, CreditCount: 24,
					Deadline: 600 * simnet.Second,
				}
				// 8 kB messages: eager iff thresh >= 8192.
				w, err := mpi.Run(cfg, func(r *mpi.Rank) {
					c := r.World()
					const n, size = 50, 8192
					if r.Rank() == 0 {
						start := r.Proc().Now()
						out := make([]byte, size)
						for i := 0; i < n; i++ {
							if err := c.Send(1, 0, out); err != nil {
								innerErr = err
								return
							}
						}
						ack := make([]byte, 4)
						if _, err := c.Recv(ack, 1, 1); err != nil {
							innerErr = err
							return
						}
						bw = float64(n*size) / r.Proc().Now().Sub(start).Seconds() / 1e6
					} else {
						in := make([]byte, size)
						for i := 0; i < n; i++ {
							if _, err := c.Recv(in, 0, 0); err != nil {
								innerErr = err
								return
							}
						}
						if err := c.Send(0, 1, []byte("ok")); err != nil {
							innerErr = err
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				if innerErr != nil {
					b.Fatal(innerErr)
				}
				_ = w
			}
			b.ReportMetric(bw, "virtual_MB/s")
		})
	}
}

// BenchmarkAblation_CreditCount sweeps the per-VI pre-posted buffer count:
// fewer credits stall the pipeline; more pin more memory (the Table 2
// trade-off).
func BenchmarkAblation_CreditCount(b *testing.B) {
	for _, credits := range []int{4, 8, 24, 64} {
		b.Run(strconv.Itoa(credits), func(b *testing.B) {
			var elapsed simnet.Duration
			for i := 0; i < b.N; i++ {
				cfg := mpi.Config{Procs: 2, CreditCount: credits, Deadline: 600 * simnet.Second}
				w, err := mpi.Run(cfg, func(r *mpi.Rank) {
					c := r.World()
					if r.Rank() == 0 {
						var reqs []mpi.Request
						for i := 0; i < 100; i++ {
							q, err := c.Isend(1, 0, make([]byte, 256))
							if err != nil {
								return
							}
							reqs = append(reqs, q)
						}
						if err := r.Waitall(reqs...); err != nil {
							return
						}
					} else {
						in := make([]byte, 256)
						for i := 0; i < 100; i++ {
							if _, err := c.Recv(in, 0, 0); err != nil {
								return
							}
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = w.Elapsed
			}
			b.ReportMetric(elapsed.Micros(), "virtual_us")
		})
	}
}

// BenchmarkAblation_SpinBudget sweeps the spinwait budget on cLAN barriers —
// the paper's polling-vs-spinwait axis made continuous.
func BenchmarkAblation_SpinBudget(b *testing.B) {
	for _, spincount := range []int{0, 100, 10000} {
		spincount := spincount
		b.Run(strconv.Itoa(spincount), func(b *testing.B) {
			var lat simnet.Duration
			for i := 0; i < b.N; i++ {
				mech := bench.StaticSpinwait
				mech.Tune = func(c *via.CostModel) { c.DefaultSpinCount = spincount }
				l, err := bench.CollectiveLatency("clan", mech, 8, 20, bench.BarrierOp, 1)
				if err != nil {
					b.Fatal(err)
				}
				lat = l
			}
			b.ReportMetric(lat.Micros(), "virtual_us")
		})
	}
}

// BenchmarkAblation_DynamicCredits compares static pools against the
// paper's future-work dynamic flow control on pinned footprint (reported)
// for a lightly-loaded channel.
func BenchmarkAblation_DynamicCredits(b *testing.B) {
	for _, dyn := range []bool{false, true} {
		name := "static-pool"
		if dyn {
			name = "dynamic-pool"
		}
		dyn := dyn
		b.Run(name, func(b *testing.B) {
			var pinned int64
			for i := 0; i < b.N; i++ {
				cfg := mpi.Config{Procs: 2, DynamicCredits: dyn, Deadline: 600 * simnet.Second}
				w, err := mpi.Run(cfg, func(r *mpi.Rank) {
					c := r.World()
					other := 1 - r.Rank()
					out := []byte{1}
					in := make([]byte, 4)
					if _, err := c.Sendrecv(other, 0, out, other, 0, in); err != nil {
						return
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				pinned = w.Ranks[0].PinnedPeak
			}
			b.ReportMetric(float64(pinned)/1024, "pinned_kB")
		})
	}
}

// BenchmarkNPBKernels runs every proxy at class S as a throughput smoke.
func BenchmarkNPBKernels(b *testing.B) {
	procs := map[string]int{"CG": 8, "MG": 8, "IS": 8, "EP": 8, "SP": 9, "BT": 9, "FT": 8, "LU": 8}
	for _, k := range npb.Kernels() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				cfg := mpi.Config{Procs: procs[k.Name], Deadline: 600 * simnet.Second}
				res, _, err := npb.Run(k, npb.ClassS, cfg)
				if err != nil {
					b.Fatal(err)
				}
				secs = res.TimeSec
			}
			b.ReportMetric(secs*1e3, "virtual_ms")
		})
	}
}

// BenchmarkEagerRoundTrip runs b.N 8-byte blocking round trips inside one
// mpi.Run, so ns/op and allocs/op are per steady-state round trip through
// the whole stack, boot and connection setup excluded. 0 allocs/op is the
// invariant: every hop of the message path is a recycled object (hotalloc
// pins the bodies, internal/mpi's TestRoundTripAllocs the count). What a
// whole run costs the host, boot included, is benchmark/'s pingpong_8b.
func BenchmarkEagerRoundTrip(b *testing.B) {
	b.ReportAllocs()
	_, err := mpi.Run(mpi.Config{Procs: 2, Deadline: 3600 * simnet.Second}, func(r *mpi.Rank) {
		c := r.World()
		buf := make([]byte, 8)
		peer := 1 - r.Rank()
		if r.Rank() == 0 {
			b.ResetTimer() // boot and connection setup are behind us
		}
		for i := 0; i < b.N; i++ {
			if r.Rank() == 0 {
				if err := c.Send(peer, 0, buf); err != nil {
					r.Abort(1, err.Error())
				}
			}
			if _, err := c.Recv(buf, peer, 0); err != nil {
				r.Abort(1, err.Error())
			}
			if r.Rank() == 1 {
				if err := c.Send(peer, 0, buf); err != nil {
					r.Abort(1, err.Error())
				}
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReconnectCycle is the connection path's rail: rank 0 may keep one
// VI and alternates between two partners, so every one of its b.N messages
// evicts the other channel (BYE handshake, teardown) and establishes a fresh
// one. ns/op, B/op and allocs/op are per reconnect cycle, both ends of it,
// and allocs/op is 0: the eager pool, the channel state and the VIs
// themselves — reissued by their ports under a new (slot, life) id — come
// off free lists (internal/mpi's TestReconnectCycleAllocs holds the count).
func BenchmarkReconnectCycle(b *testing.B) {
	b.ReportAllocs()
	cfg := mpi.Config{Procs: 3, MaxVIs: 1, Seed: 1, Deadline: 3600 * simnet.Second}
	w, err := mpi.Run(cfg, func(r *mpi.Rank) {
		c := r.World()
		buf := make([]byte, 8)
		fail := func(err error) { r.Abort(1, err.Error()) }
		if r.Rank() == 0 {
			b.ResetTimer() // boot is behind us
			for i := 0; i < b.N; i++ {
				dst := 1 + i%2
				if err := c.Send(dst, 0, buf); err != nil {
					fail(err)
				}
				if _, err := c.Recv(buf, dst, 0); err != nil {
					fail(err)
				}
			}
			return
		}
		for i := r.Rank() - 1; i < b.N; i += 2 {
			// Probe first: a posted receive would connect to rank 0 at once
			// and hold the channel open; a probing partner stays passive.
			c.Probe(0, 0)
			if _, err := c.Recv(buf, 0, 0); err != nil {
				fail(err)
			}
			if err := c.Send(0, 0, buf); err != nil {
				fail(err)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	if got := w.Ranks[0].VisCreated; got != b.N {
		b.Fatalf("rank 0 created %d VIs over %d messages: not every message reconnected", got, b.N)
	}
}

// BenchmarkMeshBoot is the static mesh's rail: one op is a whole static-p2p
// world of meshBootProcs ranks through MPI_Init and MPI_Finalize with no user
// message (benchmark/'s mesh_boot at a quarter of the ranks). Every connection
// is a first connection, so nothing comes off a free list: what allocs/op
// holds down is the slabs the managers reserve at Init, what ns/conn holds
// down is a poll that visits no idle channel, and what B/conn (both ends, and
// the connection's share of the world) holds down is a pool that is a count:
// a descriptor per pre-posted receive would add 96 bytes × 2 × CreditCount to
// it.
func BenchmarkMeshBoot(b *testing.B) {
	const meshBootProcs = 64
	const conns = meshBootProcs * (meshBootProcs - 1) / 2
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		w, err := mpi.Run(mpi.Config{
			Procs: meshBootProcs, Policy: "static-p2p", CreditCount: 4, EagerThreshold: 64,
			Seed: 1, Deadline: 3600 * simnet.Second,
		}, func(*mpi.Rank) {})
		if err != nil {
			b.Fatal(err)
		}
		if got := w.Ranks[0].VisCreated; got != meshBootProcs-1 {
			b.Fatalf("rank 0 created %d VIs, want %d", got, meshBootProcs-1)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/conns, "ns/conn")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/conns, "B/conn")
}
