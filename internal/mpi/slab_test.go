package mpi

import (
	"testing"

	"viampi/internal/obs"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// A static manager knows at Init how many channels it will build, and each
// layer makes what they take in one allocation a kind (reserve). These tests
// hold what that can break: an allocation per first connection creeping back,
// slabs sized past what the port can ever use, and a carved buffer that
// overlaps its neighbour.

// bootAllocs is the allocation count of one static-p2p world of np ranks
// through MPI_Init and MPI_Finalize.
func bootAllocs(t *testing.T, np int) float64 {
	return testing.AllocsPerRun(1, func() {
		cfg := Config{Procs: np, Policy: "static-p2p", CreditCount: 4, EagerThreshold: 64,
			Deadline: 600 * simnet.Second}
		if _, err := Run(cfg, func(*Rank) {}); err != nil {
			t.Fatal(err)
		}
	})
}

// The allocation rail of a first connection. A boot allocates a + b·np +
// c·np(np-1): per run, per rank, and per connection end. A difference between
// two world sizes still carries b (about 90 per rank, which at these sizes
// would read as a whole allocation per end); the second difference over three
// equally spaced sizes leaves 2h²·c alone. Before the slabs c was 15.5 — each
// end's VI, channel, channel state, descriptors, buffers and queue growth.
func TestFirstConnectAllocs(t *testing.T) {
	const h = 16
	a1, a2, a3 := bootAllocs(t, h), bootAllocs(t, 2*h), bootAllocs(t, 3*h)
	if perEnd := (a3 - 2*a2 + a1) / (2 * h * h); perEnd > 0.5 {
		t.Errorf("%.2f allocations per first connection end (%v, %v, %v at %d, %d, %d ranks), want at most 0.5",
			perEnd, a1, a2, a3, h, 2*h, 3*h)
	}
}

// With more peers than the port can hold VIs for, Init is going to fail; the
// slabs must not be sized for the peers it will never reach (the refused
// np=2048 boot of ext-init would pay for a thousand channels per rank that no
// rank can build), and the run must fail as it did without them: the same
// error after the same events at the same virtual instant (pinned from the
// commit before the slabs).
func TestReserveBoundedByViLimit(t *testing.T) {
	const (
		np    = 12
		limit = 6
	)
	var ranks [np]*Rank
	newRankHook = func(r *Rank) { ranks[r.rank] = r }
	defer func() { newRankHook = nil }()
	var events int
	var last int64
	bus := obs.NewBus()
	bus.Subscribe(func(e obs.Event) { events, last = events+1, e.T })
	cfg := Config{Procs: np, Policy: "static-p2p", CreditCount: 4, Obs: bus, Deadline: 30 * simnet.Second,
		TuneCost: func(c *via.CostModel) { c.MaxVIsPerPort = limit }}
	_, err := Run(cfg, func(*Rank) {})
	const wantErr = "mpi: rank 0 init: via: VI limit for this port exceeded: 6"
	if err == nil || err.Error() != wantErr {
		t.Fatalf("error %v, want %q", err, wantErr)
	}
	const wantEvents, wantLast = 384, 1451000
	if events != wantEvents || last != wantLast {
		t.Errorf("failed after %d bus events, the last at t=%d ns; without the slabs it was %d and %d",
			events, last, wantEvents, wantLast)
	}
	for _, r := range ranks {
		// Whatever the failing run left uncarved, the slabs began at the limit.
		if got := len(r.chanSlab) + len(r.active); got != limit {
			t.Errorf("rank %d: channel-state slab of %d for a port of %d VIs", r.rank, got, limit)
		}
		if left := (limit - len(r.active) + 1) * cfg.CreditCount; len(r.recvSlab) > left {
			t.Errorf("rank %d: %d receive descriptors left with %d of %d channels made", r.rank, len(r.recvSlab), len(r.active), limit)
		}
	}
}

// Buffers carved from one slab must not reach into each other or into what
// is still free: every carved buffer is filled to its capacity with its own
// byte while the uncarved rest is overwritten, and each must read back whole.
// Past the slab, takeRecv grows one at a time as it always did.
func TestSlabCarvedBuffersKeepApart(t *testing.T) {
	const (
		n     = 3
		extra = 2
	)
	cfg := Config{Procs: 1, CreditCount: 4, EagerThreshold: 100}
	if _, err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	bufSize := cfg.eagerBufSize()
	sim := simnet.New(1)
	net := via.NewNetwork(sim, via.ClanFabric(1, 1), cfg.cost)
	sim.Spawn("owner", 0, func(p *simnet.Proc) {
		port, err := net.Open(p)
		if err != nil {
			t.Error(err)
			return
		}
		r := &Rank{proc: p, port: port, cfg: &cfg}
		r.reserve(n)
		var taken []*via.Descriptor
		for i := 0; i < n*cfg.CreditCount+extra; i++ {
			d := r.takeRecv(bufSize)
			if len(d.Buf) != bufSize || cap(d.Buf) != bufSize {
				t.Errorf("descriptor %d: buffer of len %d cap %d, want %d and %d: an over-long write would reach its neighbour",
					i, len(d.Buf), cap(d.Buf), bufSize, bufSize)
				return
			}
			full := d.Buf[:cap(d.Buf)]
			for k := range full {
				full[k] = byte(i + 1)
			}
			for k := range r.bufSlab {
				r.bufSlab[k] = 0xEE
			}
			taken = append(taken, d)
		}
		if len(r.recvSlab) != 0 || len(r.bufSlab) != 0 {
			t.Errorf("%d descriptors and %d buffer bytes left in the slabs after taking %d more than they held",
				len(r.recvSlab), len(r.bufSlab), extra)
		}
		for i, d := range taken {
			for k, b := range d.Buf {
				if b != byte(i+1) {
					t.Errorf("descriptor %d: byte %d reads %#x, want %#x: buffers overlap", i, k, b, byte(i+1))
					return
				}
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}
