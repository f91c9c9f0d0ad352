package mpi

import (
	"runtime"
	"testing"
	"unsafe"

	"viampi/internal/obs"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// A static manager knows at Init how many channels it will build, and each
// layer makes what they take in one allocation a kind (reserve). These tests
// hold what that can break: an allocation per first connection creeping back
// — or the bytes of an eager buffer or a receive descriptor, which a pool no
// longer brings — and slabs sized past what the port can ever use.

// hostCost runs one world and returns what it allocated on the host, objects
// and bytes, with the world.
func hostCost(t *testing.T, cfg Config, main func(*Rank)) (w *World, allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := Run(cfg, main)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return w, float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// bootCost is what one static-p2p world of np ranks allocates through
// MPI_Init and MPI_Finalize. The pool is mesh_boot's four receives, at the
// default eager size, so that a buffer made for any of them would outweigh
// everything else a connection end holds.
func bootCost(t *testing.T, np int) (allocs, bytes float64) {
	cfg := Config{Procs: np, Policy: "static-p2p", CreditCount: 4,
		Deadline: within(simnet.Duration(np) * 250 * simnet.Microsecond)}
	_, allocs, bytes = hostCost(t, cfg, func(*Rank) {})
	return allocs, bytes
}

// The allocation rails of a rank and of a first connection. A boot allocates
// a + b·np + c·np(np-1): per run, per rank, and per connection end. A
// difference between two world sizes still carries b (about 41 per rank,
// which at these sizes would read as most of an allocation per end); the
// second difference over three equally spaced sizes leaves 2h²·c alone, and
// the first, less c's share (3h² - h)·c, leaves h·b. b read 61 while each
// out-of-band message was a fresh frame and a copy of its bytes, frames and
// flights grew one at a time, and a rank made its registry, CQ and fabric
// endpoint as objects of their own, with empty rendezvous and RDMA tables and
// an outgoing-request table that Reserve replaced. Before the slabs c was
// 15.5 — each end's VI, channel, channel state, descriptors, buffers and queue
// growth. In bytes, by the same difference, an end is its VI, its channel and
// channel state and its share of the tables; a pool that brought four
// descriptors and their queue slots again would add 416 to that, its buffers
// 4 × 5,048.
//
// The bytes bound was 480 (386 measured) while four of the tables were maps.
// A presized map rounds its size up to a power of two, so at 16, 32 and 48
// ranks its growth fell mostly outside the second difference (which read 581
// at 64, 128 and 192). With sorted and slot-indexed slices in their place the
// difference reads 480 to 495 here (684 at 64/128/192), yet a whole boot costs
// less: 660 bytes per end at 256 ranks, from 784. The bound was 580 (456
// measured) until a VI, a channel and its state shrank to 128, 96 and 104
// bytes from 176, 120 and 136 (TestChanStateSize and its peers), and 545 (430
// measured) while the port kept its outstanding requests in a presized map
// and its pending ones as pointers into a slab. Two value slices of 24-byte
// entries took their place: a 256-rank boot allocates 2.98 MB less, yet the
// bytes read 466 here, since the map's power-of-two steps fell across these
// sizes as a negative second difference. So it is the per-rank allocations
// that would show the map again: 46.5 with it, 41.5 without, against a bound
// of 45. The bytes bound holds under -race too (479 there): the tables a
// reservation sizes are made, not grown, since a slices.Grow under the race
// detector also allocates the temporary it appends (557 while it did).
func TestFirstConnectAllocs(t *testing.T) {
	const h = 16
	bootCost(t, 3*h) // what a process allocates once, the goroutines of the largest world with it
	a1, b1 := bootCost(t, h)
	a2, b2 := bootCost(t, 2*h)
	a3, b3 := bootCost(t, 3*h)
	allocsPerEnd, bytesPerEnd := (a3-2*a2+a1)/(2*h*h), (b3-2*b2+b1)/(2*h*h)
	allocsPerRank := (a2 - a1 - (3*h*h-h)*allocsPerEnd) / h
	if allocsPerRank > 45 && !raceBuild {
		t.Errorf("%.1f allocations per rank (%v, %v, %v at %d, %d, %d ranks), want at most 45 (about 41.5 measured)",
			allocsPerRank, a1, a2, a3, h, 2*h, 3*h)
	}
	if allocsPerEnd > 0.5 {
		t.Errorf("%.2f allocations per first connection end (%v, %v, %v at %d, %d, %d ranks), want at most 0.5",
			allocsPerEnd, a1, a2, a3, h, 2*h, 3*h)
	}
	if bytesPerEnd > 510 {
		t.Errorf("%.0f bytes per first connection end (%v, %v, %v at %d, %d, %d ranks), want at most 510 (466 measured)",
			bytesPerEnd, b1, b2, b3, h, 2*h, 3*h)
	}
	t.Logf("%.1f allocations per rank; %.2f allocations and %.0f bytes per first connection end", allocsPerRank, allocsPerEnd, bytesPerEnd)
}

// A static rank of a 256-rank mesh reserves the state of its 255 channels in
// one slab: at 104 bytes that is the 27,264-byte size class, where 112 would
// take 28,672.
func TestChanStateSize(t *testing.T) {
	if got := unsafe.Sizeof(chanState{}); got > 104 {
		t.Errorf("chanState is %d bytes, want at most 104", got)
	}
}

// Every rank allocates one Rank: at 512 bytes it is in the 512-byte size
// class, where 520 would take 576. The collective scratch is held by pointer
// for that reason (growColl).
func TestRankSize(t *testing.T) {
	if got := unsafe.Sizeof(Rank{}); got > 512 {
		t.Errorf("Rank is %d bytes, want at most 512", got)
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
		if got := len(r.chanSlab) + len(liveChans(r)); got != limit {
			t.Errorf("rank %d: channel-state slab of %d for a port of %d VIs", r.rank, got, limit)
		}
		// A pool is a count and no message landed: no receive descriptor exists.
		if free, out := r.port.Landing(); len(free)+out != 0 {
			t.Errorf("rank %d: %d landing descriptors free and %d out after a boot that carried no message", r.rank, len(free), out)
		}
	}
}
