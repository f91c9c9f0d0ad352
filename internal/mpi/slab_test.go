package mpi

import (
	"runtime"
	"testing"
	"unsafe"

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
// growth. b reads 41.5 (the bound of 45 is the plain build's, as the race
// detector's instrumentation allocates too); with the port's outstanding
// requests in a presized map it reads 44.5, so it is the bytes that catch a
// reserved table turning into a map again.
//
// Bytes are held boot by boot instead (bootBytes): a presized map rounds its
// room up to a power of two, and at these sizes its steps fall as a negative
// second difference, so a per-end figure taken as above read 414 bytes with
// the port's outstanding requests in a presized map and 466 with the sorted
// slice that replaced it, although every boot with the map allocated more.
// Put back as a map presized by Reserve, that table added some 9.7, 35.7 and
// 34.4 kB to the 16-, 32- and 48-rank boots (measured when the boots were
// 169,544, 558,520 and 1,185,896 bytes: 5.7, 6.4 and 2.9 % over), which is
// 6.3, 6.6 and 3.1 % over bootBytes now, where the bound allows 2 %. A pool
// that brought four descriptors again would add 384 bytes per end, its
// buffers 4 × 5,048.
func TestFirstConnectAllocs(t *testing.T) {
	const h = 16
	bootCost(t, 3*h) // what a process allocates once, the goroutines of the largest world with it
	a1, b1 := bootCost(t, h)
	a2, b2 := bootCost(t, 2*h)
	a3, b3 := bootCost(t, 3*h)
	allocsPerEnd := (a3 - 2*a2 + a1) / (2 * h * h)
	allocsPerRank := (a2 - a1 - (3*h*h-h)*allocsPerEnd) / h
	if allocsPerRank > 45 && !raceBuild {
		t.Errorf("%.1f allocations per rank (%v, %v, %v at %d, %d, %d ranks), want at most 45 (about 41.5 measured)",
			allocsPerRank, a1, a2, a3, h, 2*h, 3*h)
	}
	if allocsPerEnd > 0.5 {
		t.Errorf("%.2f allocations per first connection end (%v, %v, %v at %d, %d, %d ranks), want at most 0.5",
			allocsPerEnd, a1, a2, a3, h, 2*h, 3*h)
	}
	for i, b := range []float64{b1, b2, b3} {
		np := (i + 1) * h
		if want := bootBytes(np); b > 1.02*want {
			t.Errorf("a %d-rank boot allocated %.0f bytes, %.1f %% over the %.0f measured; want at most 2 %%",
				np, b, 100*(b/want-1), want)
		}
	}
	t.Logf("%.1f allocations per rank; %.2f allocations per first connection end; boots of %.0f, %.0f and %.0f bytes",
		allocsPerRank, allocsPerEnd, b1, b2, b3)
}

// bootBytes is what a static-p2p boot of np ranks (16, 32 or 48) allocates on
// the host, measured where every table a connection fills is a slice, the
// work queues are linked through what they hold and a channel carries no send
// FIFO of its own (with one, as a slice header, the boots read 153,416,
// 539,832 and 1,117,544 bytes: 4.5, 5.0 and 6.6 % over). The three are held as
// measured: a + b·np + c·np(np-1) fitted through them reads a negative a,
// because the slabs of VIs and channel states round up to size classes
// unevenly at these sizes (against 128 and 104 bytes, a rank's slabs of 31
// VIs and states save 0 and 384 bytes of size class, its slabs of 47 save 768
// and 512).
func bootBytes(np int) float64 {
	if raceBuild {
		return map[int]float64{16: 151240, 32: 529656, 48: 1080776}[np]
	}
	return map[int]float64{16: 146760, 32: 514232, 48: 1048424}[np]
}

// A static rank of a 256-rank mesh reserves the state of its 255 channels in
// one slab: at 88 bytes that is the 24,576-byte size class, where 89 would
// take 27,264 (two packet queues as slice headers would make it 104).
func TestChanStateSize(t *testing.T) {
	if got := unsafe.Sizeof(chanState{}); got > 88 {
		t.Errorf("chanState is %d bytes, want at most 88", got)
	}
}

// An on-demand channel's state is grown one at a time, with room for its
// pool's first registration in the same allocation, as each state of
// reserve's slab has: a first connection's registration is no allocation of
// its own. A state grown alone, its registrations appended, reads 2.
func TestGrownChanStateHoldsFirstRegistration(t *testing.T) {
	var cs *chanState
	allocs := testing.AllocsPerRun(10, func() {
		cs = growChans()
		cs.memHandles = append(cs.memHandles, 1)
	})
	if allocs != 1 {
		t.Errorf("%v allocations to grow a channel state and record its first registration, want 1", allocs)
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

// With more peers than the port can hold VIs for, a static Init refuses the
// mesh before it builds any of it, as MVICH reads the NIC's MaxVI before it
// creates a VI: no rank creates a VI, reserves a channel or lands a message
// (the refused np=2048 boot of ext-init would otherwise build a thousand VIs
// and handshakes per rank before the first CreateVi failed).
func TestReserveBoundedByViLimit(t *testing.T) {
	const (
		np    = 12
		limit = 6
	)
	var ranks [np]*Rank
	newRankHook = func(r *Rank) { ranks[r.rank] = r }
	defer func() { newRankHook = nil }()
	cfg := Config{Procs: np, Policy: "static-p2p", CreditCount: 4, Deadline: 30 * simnet.Second,
		TuneCost: func(c *via.CostModel) { c.MaxVIsPerPort = limit }}
	_, err := Run(cfg, func(*Rank) {})
	const wantErr = "mpi: rank 0 init: via: VI limit for this port exceeded: 6"
	if err == nil || err.Error() != wantErr {
		t.Fatalf("error %v, want %q", err, wantErr)
	}
	for _, r := range ranks {
		if r == nil {
			t.Fatal("a rank was never made")
		}
		if got := r.port.Stats().VisCreated; got != 0 {
			t.Errorf("rank %d: %d VIs created for a mesh that cannot fit", r.rank, got)
		}
		if got := len(r.chanSlab) + len(liveChans(r)); got != 0 {
			t.Errorf("rank %d: %d channels or slab cells for a mesh that cannot fit", r.rank, got)
		}
		// A pool is a count and no message landed: no receive descriptor exists.
		if _, made := r.port.Network().Landing(); made+r.port.LandingOut() != 0 {
			t.Errorf("rank %d: %d landing descriptors made and %d out after a boot that carried no message", r.rank, made, r.port.LandingOut())
		}
	}
}
