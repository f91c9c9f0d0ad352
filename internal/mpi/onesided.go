package mpi

import (
	"fmt"

	"viampi/internal/via"
)

// One-sided communication (MPI-2 style) over the VIA RDMA-write substrate:
// a window exposes a registered buffer to every rank; Put writes into a
// remote window with no receiver involvement; Fence closes an access epoch
// with a counting protocol plus barrier. VIA provides RDMA write but not
// RDMA read, so Get is intentionally absent — exactly the constraint early
// MPI-2 implementations over VI hardware faced.

// Win is a window: a buffer exposed for remote Put access.
type Win struct {
	c    *Comm
	buf  []byte
	keys []uint64 // comm rank -> RDMA key for that rank's window
	key  uint64
	mem  via.MemHandle
	// puts counts Put operations issued to each comm rank this epoch.
	puts  []int64
	freed bool
}

// winFlushTag is reserved in the collective context for fence flushes.
const winFlushTag = 400

// WinCreate collectively exposes buf on every rank and returns the window.
// Every rank must call it with its own buffer (sizes may differ).
func (c *Comm) WinCreate(buf []byte) (*Win, error) {
	key, mem, err := c.r.port.RegisterRdmaTarget(buf)
	if err != nil {
		return nil, err
	}
	keys := make([]int64, c.Size())
	if err := c.AllgatherI64([]int64{int64(key)}, keys); err != nil {
		// The registration pins memory against the port-wide budget; a
		// failed key exchange must not leave it pinned forever.
		c.r.port.ReleaseRdmaTarget(key, mem)
		return nil, err
	}
	w := &Win{c: c, buf: buf, key: key, mem: mem, puts: make([]int64, c.Size())}
	w.keys = make([]uint64, c.Size())
	for i, k := range keys {
		w.keys[i] = uint64(k)
	}
	return w, nil
}

// Put writes data into target's window at the given byte offset. Local
// completion is immediate (the data is snapshotted); remote completion is
// guaranteed only after the next Fence.
func (w *Win) Put(target, offset int, data []byte) error {
	if w.freed {
		return fmt.Errorf("mpi: Put on freed window")
	}
	if target < 0 || target >= w.c.Size() {
		return fmt.Errorf("mpi: Put target %d of %d", target, w.c.Size())
	}
	r := w.c.r
	world := w.c.ranks[target]
	if world == r.rank {
		if offset+len(data) > len(w.buf) {
			return fmt.Errorf("mpi: Put beyond local window")
		}
		copy(w.buf[offset:], data)
		return nil
	}
	cs, err := r.channel(world)
	if err != nil {
		return err
	}
	// One-sided access needs the connection up; drive progress until the
	// on-demand handshake completes.
	r.waitProgress(func() bool { return cs.ch.Up })
	if err := r.rdmaWrite(cs, data, w.keys[target], offset); err != nil {
		return err
	}
	w.puts[target]++
	return nil
}

// Fence closes the current access epoch: after it returns, every Put issued
// by any rank before its Fence is visible in the target windows. Protocol:
// an alltoall of per-target Put counts, a one-byte flush message chasing the
// RDMA writes on each used connection (VIA orders sends behind RDMA writes
// on the same VI), reception of the expected flushes, and a barrier.
func (w *Win) Fence() error {
	if w.freed {
		return fmt.Errorf("mpi: Fence on freed window")
	}
	c := w.c
	n := c.Size()
	sc := I64Bytes(w.puts)
	rc := make([]byte, 8*n)
	if err := c.Alltoall(sc, rc, 8); err != nil {
		return err
	}
	expect := BytesI64(rc) // expect[i] > 0 ⇒ rank i Put here and will flush
	flush := []byte{0xF}
	reqs := c.r.reqList(2 * (n - 1))
	for i := 0; i < n; i++ {
		if i == c.myrank {
			continue
		}
		if expect[i] > 0 {
			in := make([]byte, 4)
			rq, err := c.irecvCtx(in, i, winFlushTag, c.cctx)
			if err != nil {
				return err
			}
			reqs = append(reqs, rq)
		}
		if w.puts[i] > 0 {
			sq, err := c.isendCtx(ModeStandard, i, winFlushTag, flush, c.cctx)
			if err != nil {
				return err
			}
			reqs = append(reqs, sq)
		}
	}
	if err := c.r.Waitall(reqs...); err != nil {
		return err
	}
	for i := range w.puts {
		w.puts[i] = 0
	}
	return c.Barrier()
}

// Free collectively releases the window (a final Fence is implied).
func (w *Win) Free() error {
	if w.freed {
		return nil
	}
	if err := w.Fence(); err != nil {
		return err
	}
	w.freed = true
	return w.c.r.port.ReleaseRdmaTarget(w.key, w.mem)
}

// Buf returns the locally exposed buffer.
func (w *Win) Buf() []byte { return w.buf }
