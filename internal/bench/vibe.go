package bench

import (
	"encoding/binary"
	"fmt"

	"viampi/internal/fabric"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// VIA-substrate measurements — no MPI — in the spirit of the VIBe
// microbenchmark suite the paper cites for its Figure 1: what the device
// personalities cost before any MPI protocol is layered on top. Every
// measurement is a hermetic two-process simulation.

// vibeDevice is one device personality: its host/NIC cost model and fabric.
type vibeDevice struct {
	name   string
	cost   func() via.CostModel
	fabric func(nodes, procsPerNode int) fabric.Config
}

var vibeDevices = []vibeDevice{
	{"clan", via.ClanCost, via.ClanFabric},
	{"bvia", via.BviaCost, via.BviaFabric},
	{"ib", via.IbCost, via.IbFabric},
}

// viaSide is one endpoint's script; an error fails the simulation.
type viaSide func(p *simnet.Proc, port *via.Port, peer via.Addr) (simnet.Duration, error)

// viaPair runs a two-process VIA experiment, one script per endpoint, and
// returns what the first one measured.
func viaPair(dev vibeDevice, a, b viaSide) (simnet.Duration, error) {
	sides := [2]viaSide{a, b}
	sim := simnet.New(1)
	sim.SetDeadline(simnet.Time(60 * simnet.Second))
	net := via.NewNetwork(sim, dev.fabric(2, 1), dev.cost())
	var results [2]simnet.Duration
	var addrs [2]via.Addr
	ready := 0
	for i := range results {
		sim.Spawn(fmt.Sprint("p", i), 0, func(p *simnet.Proc) {
			port, err := net.Open(p)
			if err == nil {
				addrs[i] = port.Addr()
				ready++
				for ready < 2 {
					p.Sleep(simnet.Microsecond)
				}
				results[i], err = sides[i](p, port, addrs[1-i])
			}
			if err != nil {
				sim.Failf("ext-vibe: %v", err)
			}
		})
	}
	err := sim.Run()
	return results[0], err
}

// viaConnect creates a VI with recvs posted receives of size bytes, opens
// extraVis idle VIs beside it, and connects it to the peer.
func viaConnect(port *via.Port, peer via.Addr, recvs, size, extraVis int) (*via.VI, error) {
	vi, err := port.CreateVi()
	if err != nil {
		return nil, err
	}
	for i := 0; i < recvs; i++ {
		if err := vi.PostRecv(&via.Descriptor{Buf: make([]byte, size)}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < extraVis; i++ {
		if _, err := port.CreateVi(); err != nil {
			return nil, err
		}
	}
	if err := port.ConnectPeerRequest(vi, peer, 1); err != nil {
		return nil, err
	}
	return vi, port.ConnectPeerWait(vi, via.WaitPoll, -1)
}

// vibeSetup measures VI creation plus peer-to-peer connection setup; both
// endpoints run the same script.
func vibeSetup(dev vibeDevice) (simnet.Duration, error) {
	side := func(p *simnet.Proc, port *via.Port, peer via.Addr) (simnet.Duration, error) {
		start := p.Now()
		_, err := viaConnect(port, peer, 4, 256, 0)
		return p.Now().Sub(start), err
	}
	return viaPair(dev, side, side)
}

// vibeLatency measures the one-way latency of a 4-byte ping-pong with vis
// VIs open on each port (the connected one plus idle extras).
func vibeLatency(dev vibeDevice, vis int) (simnet.Duration, error) {
	const iters = 30
	side := func(serve bool) viaSide {
		return func(p *simnet.Proc, port *via.Port, peer via.Addr) (simnet.Duration, error) {
			vi, err := viaConnect(port, peer, iters+2, 64, vis-1)
			if err != nil {
				return 0, err
			}
			start := p.Now()
			for i := 0; i < 2*iters; i++ {
				// The server receives on even steps, the client on odd ones.
				if (i%2 == 0) == serve {
					_, err = vi.RecvWait(via.WaitPoll, -1)
				} else {
					err = vi.PostSend(&via.Descriptor{Buf: []byte{1, 2, 3, 4}, Len: 4})
				}
				if err != nil {
					return 0, err
				}
			}
			return p.Now().Sub(start) / (2 * iters), nil
		}
	}
	return viaPair(dev, side(false), side(true))
}

// vibeBandwidth measures 64 kB streaming bandwidth in MB/s over send/receive
// or, with rdma set, RDMA write.
func vibeBandwidth(dev vibeDevice, rdma bool) (float64, error) {
	const size = 64 << 10
	const iters = 40
	d, err := viaPair(dev,
		func(p *simnet.Proc, port *via.Port, peer via.Addr) (simnet.Duration, error) {
			vi, err := viaConnect(port, peer, 4, size, 0)
			if err != nil {
				return 0, err
			}
			desc := &via.Descriptor{Buf: make([]byte, size), Len: size}
			post := vi.PostSend
			if rdma {
				// Learn the RDMA key out of band (first receive).
				dk, err := vi.RecvWait(via.WaitPoll, -1)
				if err != nil {
					return 0, err
				}
				desc.RdmaKey = binary.LittleEndian.Uint64(dk.Buf)
				post = vi.PostRdmaWrite
			}
			start := p.Now()
			for i := 0; i < iters; i++ {
				if err := post(desc); err != nil {
					return 0, err
				}
				if _, err := vi.SendWait(via.WaitPoll, -1); err != nil {
					return 0, err
				}
			}
			// Completion handshake: the peer acks when it has everything.
			_, err = vi.RecvWait(via.WaitPoll, -1)
			return p.Now().Sub(start), err
		},
		func(p *simnet.Proc, port *via.Port, peer via.Addr) (simnet.Duration, error) {
			recvs := iters + 4
			if rdma {
				recvs = 6
			}
			vi, err := viaConnect(port, peer, recvs, size, 0)
			if err != nil {
				return 0, err
			}
			if rdma {
				key, mem, err := port.RegisterRdmaTarget(make([]byte, size))
				if err != nil {
					return 0, err
				}
				// The registration pins the target against the port-wide
				// budget for the whole run; give it back on the way out.
				defer port.ReleaseRdmaTarget(key, mem)
				kb := binary.LittleEndian.AppendUint64(nil, key)
				if err := vi.PostSend(&via.Descriptor{Buf: kb, Len: len(kb)}); err != nil {
					return 0, err
				}
				// RDMA writes are silent; wait for the stats to show all
				// the bytes, then ack.
				for port.Stats().RdmaBytes < int64(size*iters) {
					port.WaitActivityTimeout(via.WaitPoll, 200*simnet.Microsecond)
				}
			} else {
				for i := 0; i < iters; i++ {
					if _, err := vi.RecvWait(via.WaitPoll, -1); err != nil {
						return 0, err
					}
				}
			}
			return 0, vi.PostSend(&via.Descriptor{Buf: []byte{0xAC}, Len: 1})
		})
	return float64(size*iters) / d.Seconds() / 1e6, err
}

// ExtVibe measures the VIA substrate directly on every device personality:
// connection setup, small-message latency as idle VIs accumulate on the
// port (Figure 1's effect without MPI above it), and send/receive against
// RDMA-write bandwidth. The shape is the same in quick and full mode — the
// whole table is a few dozen two-process simulations.
func ExtVibe(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ext-vibe",
		Title:   "VIA substrate without MPI (VIBe-style): setup, latency vs. open VIs, send vs. RDMA bandwidth",
		Columns: []string{"measurement"},
		Notes:   []string{"idle VIs cost latency only where the NIC scans doorbells in firmware (bvia); clan and ib stay flat"},
	}
	for _, dev := range vibeDevices {
		t.Columns = append(t.Columns, dev.name)
	}
	type measurement struct {
		name string
		run  func(dev vibeDevice) (string, error)
	}
	micros := func(d simnet.Duration, err error) (string, error) { return fmtMicros(d), err }
	rows := []measurement{{"VI create + peer connect (us)",
		func(dev vibeDevice) (string, error) { return micros(vibeSetup(dev)) }}}
	for _, vis := range []int{1, 4, 16, 64} {
		rows = append(rows, measurement{fmt.Sprintf("4B one-way latency, open VIs = %d (us)", vis),
			func(dev vibeDevice) (string, error) { return micros(vibeLatency(dev, vis)) }})
	}
	for _, mode := range []struct {
		name string
		rdma bool
	}{{"send", false}, {"rdma", true}} {
		rows = append(rows, measurement{mode.name + " bandwidth, 64kB (MB/s)",
			func(dev vibeDevice) (string, error) {
				mbps, err := vibeBandwidth(dev, mode.rdma)
				return fmt.Sprintf("%.1f", mbps), err
			}})
	}
	cells, err := gridCells(opt, "ext-vibe", len(rows), len(vibeDevices),
		func(r, c int) string { return fmt.Sprintf("ext-vibe/%s/%s", vibeDevices[c].name, rows[r].name) },
		func(r, c int) (string, error) { return rows[r].run(vibeDevices[c]) })
	if err != nil {
		return nil, err
	}
	for i, m := range rows {
		t.AddRow(append([]string{m.name}, cells[i]...)...)
	}
	return t, nil
}
