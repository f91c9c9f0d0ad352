package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"viampi/internal/obs"
	"viampi/internal/simnet"
	"viampi/internal/sweep"
	"viampi/internal/via"
)

// TestEvictionFIFOOrder runs a phased shift pattern under a VI cap far below
// N-1: every phase talks to a fresh peer, so channels are continually
// evicted and re-established. Message payloads encode (src, phase, iter) and
// receivers verify them exactly — any reordering or loss across an
// evict→reconnect cycle fails loudly. The collector counters prove the cap
// actually forced evictions and reconnects rather than the test passing
// vacuously.
func TestEvictionFIFOOrder(t *testing.T) {
	const (
		n      = 6
		maxVIs = 2
		phases = n - 1
		iters  = 5
	)
	bus := obs.NewBus()
	reg := obs.NewRegistry()
	obs.NewCollector(reg).Attach(bus)
	cfg := Config{Procs: n, Policy: "ondemand", MaxVIs: maxVIs,
		Deadline: 120 * simnet.Second, Seed: 7, Obs: bus}
	_, err := Run(cfg, func(r *Rank) {
		c := r.World()
		me := r.Rank()
		buf := make([]byte, 12)
		out := make([]byte, 12)
		for ph := 1; ph <= phases; ph++ {
			dst := (me + ph) % n
			src := (me - ph + n) % n
			for i := 0; i < iters; i++ {
				binary.LittleEndian.PutUint32(out[0:], uint32(me))
				binary.LittleEndian.PutUint32(out[4:], uint32(ph))
				binary.LittleEndian.PutUint32(out[8:], uint32(i))
				if _, err := c.Sendrecv(dst, ph, out, src, ph, buf); err != nil {
					r.Abort(1, err.Error())
				}
				gotSrc := int(binary.LittleEndian.Uint32(buf[0:]))
				gotPh := int(binary.LittleEndian.Uint32(buf[4:]))
				gotIt := int(binary.LittleEndian.Uint32(buf[8:]))
				if gotSrc != src || gotPh != ph || gotIt != i {
					r.Abort(1, fmt.Sprintf("rank %d phase %d iter %d: got (%d,%d,%d)",
						me, ph, i, gotSrc, gotPh, gotIt))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev := reg.Counter("conn.evictions"); ev == 0 {
		t.Error("no evictions recorded: cap never engaged")
	}
	if rc := reg.Counter("events.conn.reconnect"); rc == 0 {
		t.Error("no reconnects recorded: eviction never round-tripped")
	}
}

// TestEvictionRandomProgramEquivalence requires the random program suite to
// produce bit-identical per-rank checksums with and without a VI cap: the
// eviction/reconnect machinery must be invisible to MPI semantics.
func TestEvictionRandomProgramEquivalence(t *testing.T) {
	const n = 6
	for seed := int64(1); seed <= 3; seed++ {
		prog := randProgram(seed, n)
		run := func(cap int) [][]byte {
			results := make([][]byte, n)
			cfg := Config{Procs: n, Policy: "ondemand", MaxVIs: cap,
				Deadline: 120 * simnet.Second, Seed: seed}
			if _, err := Run(cfg, func(r *Rank) { results[r.Rank()] = prog(r) }); err != nil {
				t.Fatalf("seed %d cap %d: %v", seed, cap, err)
			}
			return results
		}
		uncapped, capped := run(0), run(3)
		for rk := range uncapped {
			if !bytes.Equal(uncapped[rk], capped[rk]) {
				t.Fatalf("seed %d: rank %d differs under MaxVIs=3", seed, rk)
			}
		}
	}
}

// TestFaultMatrix replays the random program suite under injected
// connection-establishment faults — drops, NACK refusals, delays, and all
// three combined — across every connection policy, requiring per-rank
// checksums identical to the fault-free reference. Establishment retries
// must heal every fault without losing or reordering a single parked send.
// The 8-rank shape's 3 ms delay outlasts the 2 ms attempt timeout, so a
// server often answers a request its client has already cancelled: the
// client must take that late ACK, or static-cs's in-order server moves on and
// never answers the retry.
func TestFaultMatrix(t *testing.T) {
	type plan struct {
		name string
		plan func() *via.FaultPlan
	}
	combined := plan{"combined", func() *via.FaultPlan {
		return &via.FaultPlan{DropConnReq: 0.2, RefuseConnReq: 0.2,
			DelayConnReq: 0.3, ConnReqDelay: 200 * simnet.Microsecond}
	}}
	drop := plan{"drop", func() *via.FaultPlan { return &via.FaultPlan{DropConnReq: 0.3} }}
	refuse := plan{"refuse", func() *via.FaultPlan { return &via.FaultPlan{RefuseConnReq: 0.3} }}
	delay := func(d simnet.Duration) plan {
		return plan{fmt.Sprintf("delay%v", d), func() *via.FaultPlan {
			return &via.FaultPlan{DelayConnReq: 0.5, ConnReqDelay: d}
		}}
	}
	var seeds20 []int64
	for s := int64(1); s <= 20; s++ {
		seeds20 = append(seeds20, s)
	}
	shapes := []struct {
		n     int
		seeds []int64
		plans []plan
	}{
		{6, []int64{1, 2}, []plan{drop, refuse, delay(300 * simnet.Microsecond), combined}},
		{8, seeds20, []plan{drop, refuse, delay(3 * simnet.Millisecond), combined}},
	}
	policies := []string{"static-cs", "static-p2p", "ondemand"}

	// matrixRun executes one cell — a full world under one (seed, policy,
	// fault plan) — and returns the per-rank checksums. Each job builds its
	// own program closure and result slice, so cells are hermetic and the
	// whole matrix fans out over the batch runner.
	matrixRun := func(n int, seed int64, pol string, plan *via.FaultPlan) ([][]byte, error) {
		prog := randProgram(seed, n)
		results := make([][]byte, n)
		cfg := Config{Procs: n, Policy: pol, Deadline: 120 * simnet.Second,
			Seed: seed, Faults: plan}
		if _, err := Run(cfg, func(r *Rank) { results[r.Rank()] = prog(r) }); err != nil {
			return nil, err
		}
		return results, nil
	}

	// Stage 1: fault-free references, one per (shape, seed, policy).
	var refJobs []sweep.Job[[][]byte]
	for _, sh := range shapes {
		for _, seed := range sh.seeds {
			for _, pol := range policies {
				n, seed, pol := sh.n, seed, pol
				refJobs = append(refJobs, sweep.Job[[][]byte]{
					ID:  fmt.Sprintf("ref/n=%d/seed=%d/%s", n, seed, pol),
					Run: func() ([][]byte, error) { return matrixRun(n, seed, pol, nil) },
				})
			}
		}
	}
	refs, err := sweep.Values(sweep.Run(sweep.Options{}, refJobs))
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}

	// Stage 2: every fault plan against its reference.
	var faultJobs []sweep.Job[struct{}]
	for _, sh := range shapes {
		for _, seed := range sh.seeds {
			for _, pol := range policies {
				ref := refs[0]
				refs = refs[1:]
				for _, pl := range sh.plans {
					n, seed, pol, pl := sh.n, seed, pol, pl
					faultJobs = append(faultJobs, sweep.Job[struct{}]{
						ID: fmt.Sprintf("n=%d/seed=%d/%s/%s", n, seed, pol, pl.name),
						Run: func() (struct{}, error) {
							results, err := matrixRun(n, seed, pol, pl.plan())
							if err != nil {
								return struct{}{}, fmt.Errorf("%d ranks seed %d %s %s: %w", n, seed, pol, pl.name, err)
							}
							for rk := range results {
								if !bytes.Equal(ref[rk], results[rk]) {
									return struct{}{}, fmt.Errorf("%d ranks seed %d %s %s: rank %d checksum differs from fault-free run",
										n, seed, pol, pl.name, rk)
								}
							}
							return struct{}{}, nil
						},
					})
				}
			}
		}
	}
	for _, r := range sweep.Run(sweep.Options{}, faultJobs) {
		if r.Err != nil {
			t.Error(r.Err)
		}
	}
}

// TestFaultRetrySucceeds pins the NACK-then-retry path directly: the target
// endpoint refuses all connections during a window covering the first
// attempt, so establishment succeeds only through timeout/backoff retry.
func TestFaultRetrySucceeds(t *testing.T) {
	bus := obs.NewBus()
	reg := obs.NewRegistry()
	obs.NewCollector(reg).Attach(bus)
	plan := &via.FaultPlan{Unavailable: []via.FaultWindow{
		{Ep: 1, From: 0, To: simnet.Time(5 * simnet.Millisecond)},
	}}
	msg := []byte("made it through the outage")
	cfg := Config{Procs: 2, Policy: "ondemand", Faults: plan,
		Deadline: 120 * simnet.Second, Seed: 3, Obs: bus}
	world, err := Run(cfg, func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			if err := c.Send(1, 9, msg); err != nil {
				r.Abort(1, err.Error())
			}
		} else {
			// Stay out of MPI until the outage ends: posting the receive
			// earlier would initiate a reverse connection from the healthy
			// endpoint and heal the fault without any retry.
			r.Proc().Sleep(6 * simnet.Millisecond)
			buf := make([]byte, 64)
			st, err := c.Recv(buf, 0, 9)
			if err != nil {
				r.Abort(1, err.Error())
			}
			if !bytes.Equal(buf[:st.Count], msg) {
				r.Abort(1, "payload corrupted across retries")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if world.Net.ConnReqsRefused == 0 {
		t.Error("no refusals recorded: the unavailability window never engaged")
	}
	if reg.Counter("conn.retries") == 0 {
		t.Error("no retries recorded: establishment should have needed at least one")
	}
}

// TestFaultRetryExhaustion pins the other end of the retry path: with both
// endpoints refusing every connection for the whole run, each policy spends
// its attempt budget and fails the run loudly, naming the budget, instead of
// hanging or stranding parked sends silently.
func TestFaultRetryExhaustion(t *testing.T) {
	const deadline = 120 * simnet.Second
	for _, pol := range []string{"static-cs", "static-p2p", "ondemand"} {
		plan := &via.FaultPlan{Unavailable: []via.FaultWindow{
			{Ep: 0, From: 0, To: simnet.Time(deadline)},
			{Ep: 1, From: 0, To: simnet.Time(deadline)},
		}}
		cfg := Config{Procs: 2, Policy: pol, Faults: plan, Deadline: deadline, Seed: 1}
		_, err := Run(cfg, func(r *Rank) {
			// The run fails inside these calls: neither returns.
			c := r.World()
			if r.Rank() == 0 {
				c.Send(1, 0, []byte{1})
			} else {
				c.Recv(make([]byte, 1), 0, 0)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "8 attempts") {
			t.Errorf("%s: err = %v, want the run to fail after 8 attempts", pol, err)
		}
	}
}
