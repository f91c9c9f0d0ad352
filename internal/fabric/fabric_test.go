package fabric

import (
	"testing"
	"testing/quick"

	"viampi/internal/simnet"
)

func testConfig() Config {
	return Config{
		Nodes:           4,
		ProcsPerNode:    2,
		BandwidthBps:    100e6, // 100 MB/s -> 10 ns per byte
		WireLatency:     5 * simnet.Microsecond,
		SwitchLatency:   1 * simnet.Microsecond,
		SameNodeLatency: 2 * simnet.Microsecond,
		MgmtLatency:     100 * simnet.Microsecond,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.ProcsPerNode = 0 },
		func(c *Config) { c.BandwidthBps = 0 },
		func(c *Config) { c.WireLatency = -1 },
	}
	for i, mut := range cases {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestAttachPlacement(t *testing.T) {
	s := simnet.New(1)
	c := New(s, testConfig())
	for i := 0; i < 8; i++ {
		id, err := c.Attach(func(Frame) {})
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("id = %d, want %d", id, i)
		}
		if got, want := c.NodeOf(id), i/2; got != want {
			t.Fatalf("NodeOf(%d) = %d, want %d", id, got, want)
		}
	}
	if _, err := c.Attach(func(Frame) {}); err == nil {
		t.Fatal("expected cluster-full error")
	}
}

// attachN attaches n sink endpoints and returns a slice to collect frames per endpoint.
func attachN(t *testing.T, c *Cluster, n int) [][]Frame {
	t.Helper()
	got := make([][]Frame, n)
	for i := 0; i < n; i++ {
		i := i
		if _, err := c.Attach(func(f Frame) { got[i] = append(got[i], f) }); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

func TestCrossNodeLatency(t *testing.T) {
	s := simnet.New(1)
	c := New(s, testConfig())
	var deliveredAt simnet.Time
	if _, err := c.Attach(func(Frame) {}); err != nil { // ep 0, node 0
		t.Fatal(err)
	}
	if _, err := c.Attach(func(Frame) {}); err != nil { // ep 1, node 0
		t.Fatal(err)
	}
	if _, err := c.Attach(func(f Frame) { deliveredAt = s.Now() }); err != nil { // ep 2, node 1
		t.Fatal(err)
	}
	c.Send(Frame{Src: 0, Dst: 2, Size: 1000}, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// tx 1000B@100MB/s = 10µs, wire 5µs + switch 1µs, rx 10µs → 26µs
	want := simnet.Time(26 * simnet.Microsecond)
	if deliveredAt != want {
		t.Fatalf("deliveredAt = %v, want %v", deliveredAt, want)
	}
}

func TestSameNodeLatencySkipsSwitch(t *testing.T) {
	s := simnet.New(1)
	c := New(s, testConfig())
	var deliveredAt simnet.Time
	if _, err := c.Attach(func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(func(f Frame) { deliveredAt = s.Now() }); err != nil {
		t.Fatal(err)
	}
	c.Send(Frame{Src: 0, Dst: 1, Size: 1000}, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// tx 10µs + loopback 2µs = 12µs (no rx serialization on loopback)
	want := simnet.Time(12 * simnet.Microsecond)
	if deliveredAt != want {
		t.Fatalf("deliveredAt = %v, want %v", deliveredAt, want)
	}
}

func TestTxSerialization(t *testing.T) {
	s := simnet.New(1)
	c := New(s, testConfig())
	got := attachN(t, c, 4)
	// Two 1000-byte frames from ep0 (node 0) to eps on different nodes must
	// serialize on node 0's tx port: second arrives 10µs after the first.
	var times []simnet.Time
	c2 := func(f Frame) { times = append(times, s.Now()) }
	_ = got
	c.eps[2].handler = c2
	c.eps[3].handler = c2 // same node 1 — also shares rx port
	c.Send(Frame{Src: 0, Dst: 2, Size: 1000}, 0)
	c.Send(Frame{Src: 0, Dst: 3, Size: 1000}, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(times))
	}
	// First: tx ends 10µs, +6µs wire/switch, rx ends 26µs.
	// Second: tx ends 20µs, arrives 26µs, rx busy until 26, rx ends 36µs.
	if times[0] != simnet.Time(26*simnet.Microsecond) || times[1] != simnet.Time(36*simnet.Microsecond) {
		t.Fatalf("times = %v, want [26µs 36µs]", times)
	}
}

func TestFIFOPerPair(t *testing.T) {
	s := simnet.New(1)
	c := New(s, testConfig())
	var order []int
	if _, err := c.Attach(func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(func(f Frame) { order = append(order, f.Payload.(int)) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.Send(Frame{Src: 0, Dst: 2, Size: 64, Payload: i}, 0)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v: not FIFO", order)
		}
	}
}

func TestMgmtDelivery(t *testing.T) {
	s := simnet.New(1)
	c := New(s, testConfig())
	var at simnet.Time
	if _, err := c.Attach(func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(func(f Frame) { at = s.Now() }); err != nil {
		t.Fatal(err)
	}
	c.SendMgmt(Frame{Src: 0, Dst: 2, Size: 1 << 20}) // size ignored on mgmt net
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != simnet.Time(100*simnet.Microsecond) {
		t.Fatalf("mgmt delivered at %v, want 100µs", at)
	}
	if c.MgmtFrames != 1 {
		t.Fatalf("MgmtFrames = %d, want 1", c.MgmtFrames)
	}
}

// Property: total delivery latency for an isolated frame is exactly the
// analytic sum, for any size and any distinct node pair.
func TestPropertyIsolatedFrameLatency(t *testing.T) {
	cfg := testConfig()
	f := func(sz uint16, srcSlot, dstSlot uint8) bool {
		src := int(srcSlot) % cfg.MaxProcs()
		dst := int(dstSlot) % cfg.MaxProcs()
		if src == dst {
			return true
		}
		size := int(sz)%65536 + 1
		s := simnet.New(1)
		c := New(s, cfg)
		var at simnet.Time
		for i := 0; i < cfg.MaxProcs(); i++ {
			i := i
			if _, err := c.Attach(func(f Frame) {
				if i == dst {
					at = s.Now()
				}
			}); err != nil {
				return false
			}
		}
		c.Send(Frame{Src: src, Dst: dst, Size: size}, 0)
		if err := s.Run(); err != nil {
			return false
		}
		ser := simnet.Duration(float64(size) / cfg.BandwidthBps * 1e9)
		var want simnet.Time
		if c.NodeOf(src) == c.NodeOf(dst) {
			want = simnet.Time(ser + cfg.SameNodeLatency)
		} else {
			want = simnet.Time(2*ser + cfg.WireLatency + cfg.SwitchLatency)
		}
		return at == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: frames between a pair always deliver in send order, even with
// random sizes and extra delays that are non-decreasing.
func TestPropertyPairFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		s := simnet.New(1)
		c := New(s, testConfig())
		var order []int
		if _, err := c.Attach(func(Frame) {}); err != nil {
			return false
		}
		if _, err := c.Attach(func(Frame) {}); err != nil {
			return false
		}
		if _, err := c.Attach(func(f Frame) { order = append(order, f.Payload.(int)) }); err != nil {
			return false
		}
		for i, sz := range sizes {
			c.Send(Frame{Src: 0, Dst: 2, Size: int(sz) + 1, Payload: i}, 0)
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(order) != len(sizes) {
			return false
		}
		for i := range order {
			if order[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// roundTrips runs n frame round trips between two parked processes on
// different nodes inside one simulation.
func roundTrips(t *testing.T, n int) {
	s := simnet.New(1)
	c := New(s, testConfig())
	var procs [3]*simnet.Proc // endpoints 0 and 2 sit on nodes 0 and 1
	for i := range procs {
		if _, err := c.Attach(func(Frame) { procs[i].Wake() }); err != nil {
			t.Fatal(err)
		}
	}
	procs[0] = s.Spawn("a", 0, func(p *simnet.Proc) {
		for i := 0; i < n; i++ {
			c.Send(Frame{Src: 0, Dst: 2, Size: 64}, 0)
			p.Park()
		}
	})
	procs[2] = s.Spawn("b", 0, func(p *simnet.Proc) {
		for i := 0; i < n; i++ {
			p.Park()
			c.Send(Frame{Src: 2, Dst: 0, Size: 64}, 0)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// The allocation rail at the fabric boundary: a frame is a recycled record
// that is its own event, so a round trip allocates nothing. Measured by
// difference between two run lengths of one simulation, so boot cancels.
func TestRoundTripAllocs(t *testing.T) {
	const n = 200
	short := testing.AllocsPerRun(5, func() { roundTrips(t, n) })
	long := testing.AllocsPerRun(5, func() { roundTrips(t, 10*n) })
	if perRT := (long - short) / (9 * n); perRT > 0.01 {
		t.Errorf("%.3f allocations per frame round trip (%v for %d, %v for %d), want 0", perRT, short, n, long, 10*n)
	}
}
