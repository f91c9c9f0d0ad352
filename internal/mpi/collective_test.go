package mpi

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"viampi/internal/simnet"
)

// sizes to exercise: 1, powers of two, and awkward non-powers.
var collectiveSizes = []int{1, 2, 3, 4, 5, 7, 8, 12, 16}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		n := n
		entered := make([]simnet.Time, n)
		exited := make([]simnet.Time, n)
		runWorld(t, testCfg(n), func(r *Rank) {
			me := r.Rank()
			// Stagger arrivals.
			r.Proc().Sleep(simnet.Duration(me) * simnet.Millisecond)
			entered[me] = r.Proc().Now()
			if err := r.World().Barrier(); err != nil {
				t.Error(err)
				return
			}
			exited[me] = r.Proc().Now()
		})
		var lastEnter simnet.Time
		for _, e := range entered {
			if e > lastEnter {
				lastEnter = e
			}
		}
		for i, x := range exited {
			if x < lastEnter {
				t.Errorf("n=%d: rank %d exited barrier at %v before last entry %v", n, i, x, lastEnter)
			}
		}
	}
}

// TestBarrierAlgorithmsSynchronize verifies the synchronization property of
// the recursive-doubling barrier ("rd") at power-of-2 and odd sizes, with
// arrivals staggered in 137 µs steps rather than whole milliseconds.
func TestBarrierAlgorithmsSynchronize(t *testing.T) {
	for _, n := range []int{2, 5, 8, 9} {
		n := n
		t.Run("rd", func(t *testing.T) {
			entered := make([]simnet.Time, n)
			exited := make([]simnet.Time, n)
			runWorld(t, testCfg(n), func(r *Rank) {
				me := r.Rank()
				r.Proc().Sleep(simnet.Duration(me*137) * simnet.Microsecond)
				entered[me] = r.Proc().Now()
				if err := r.World().Barrier(); err != nil {
					t.Error(err)
					return
				}
				exited[me] = r.Proc().Now()
			})
			var last simnet.Time
			for _, e := range entered {
				if e > last {
					last = e
				}
			}
			for i, x := range exited {
				if x < last {
					t.Errorf("n=%d: rank %d left at %v before last entry %v", n, i, x, last)
				}
			}
		})
	}
}

func TestBcastAllSizesAndRoots(t *testing.T) {
	for _, n := range collectiveSizes {
		n := n
		for _, root := range []int{0, n - 1, n / 2} {
			root := root
			runWorld(t, testCfg(n), func(r *Rank) {
				c := r.World()
				buf := make([]byte, 100)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = byte(i ^ root)
					}
				}
				if err := c.Bcast(buf, root); err != nil {
					t.Error(err)
					return
				}
				for i := range buf {
					if buf[i] != byte(i^root) {
						t.Errorf("n=%d root=%d rank=%d: bcast corrupted at %d", n, root, c.Rank(), i)
						return
					}
				}
			})
		}
	}
}

func TestBcastLargeRendezvous(t *testing.T) {
	const n = 6
	runWorld(t, testCfg(n), func(r *Rank) {
		c := r.World()
		buf := make([]byte, 200000)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i * 7)
			}
		}
		if err := c.Bcast(buf, 0); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < len(buf); i += 997 {
			if buf[i] != byte(i*7) {
				t.Errorf("rank %d: large bcast corrupted at %d", c.Rank(), i)
				return
			}
		}
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range collectiveSizes {
		n := n
		runWorld(t, testCfg(n), func(r *Rank) {
			c := r.World()
			me := float64(c.Rank())
			in := []float64{me + 1, me * me, -me}
			wantSum := make([]float64, 3)
			for i := 0; i < n; i++ {
				wantSum[0] += float64(i) + 1
				wantSum[1] += float64(i) * float64(i)
				wantSum[2] += -float64(i)
			}
			// Reduce to a non-zero root.
			root := (n - 1) / 2
			rb := make([]byte, 24)
			if err := c.Reduce(F64Bytes(in), rb, SumF64, root); err != nil {
				t.Error(err)
				return
			}
			if c.Rank() == root {
				got := BytesF64(rb)
				for i := range wantSum {
					if got[i] != wantSum[i] {
						t.Errorf("n=%d Reduce[%d] = %v, want %v", n, i, got[i], wantSum[i])
					}
				}
			}
			// Allreduce max.
			got := []float64{me}
			if err := c.AllreduceF64(got, MaxF64); err != nil {
				t.Error(err)
				return
			}
			if got[0] != float64(n-1) {
				t.Errorf("n=%d Allreduce max = %v, want %d", n, got[0], n-1)
			}
		})
	}
}

func TestAllreduceI64Ops(t *testing.T) {
	const n = 7
	runWorld(t, testCfg(n), func(r *Rank) {
		c := r.World()
		me := int64(c.Rank())
		sum := []int64{me, 1}
		if err := c.AllreduceI64(sum, SumI64); err != nil {
			t.Error(err)
			return
		}
		if sum[0] != int64(n*(n-1)/2) || sum[1] != n {
			t.Errorf("sum = %v", sum)
		}
		bor := []int64{1 << uint(c.Rank())}
		if err := c.AllreduceI64(bor, BorI64); err != nil || bor[0] != (1<<n)-1 {
			t.Errorf("bor = %v err=%v", bor, err)
		}
	})
}

func TestGather(t *testing.T) {
	for _, n := range []int{2, 5, 9} {
		n := n
		runWorld(t, testCfg(n), func(r *Rank) {
			c := r.World()
			me := c.Rank()
			// Gather 4-byte blocks to root 1 (if present).
			root := 1 % n
			blk := []byte{byte(me), byte(me + 1), byte(me + 2), byte(me + 3)}
			full := make([]byte, 4*n)
			if err := c.Gather(blk, full, root); err != nil {
				t.Error(err)
				return
			}
			if me == root {
				for i := 0; i < n; i++ {
					if full[4*i] != byte(i) || full[4*i+3] != byte(i+3) {
						t.Errorf("n=%d gather block %d wrong: % x", n, i, full[4*i:4*i+4])
					}
				}
			}
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{2, 6, 11} {
		n := n
		runWorld(t, testCfg(n), func(r *Rank) {
			c := r.World()
			me := c.Rank()
			out := make([]byte, 8*n)
			if err := c.Allgather([]byte{byte(me), byte(me * 2), 0, 0, 0, 0, 0, 0}, out); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				if out[8*i] != byte(i) || out[8*i+1] != byte(i*2) {
					t.Errorf("n=%d rank %d: allgather block %d = % x", n, me, i, out[8*i:8*i+2])
					return
				}
			}
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 4, 7} {
		n := n
		runWorld(t, testCfg(n), func(r *Rank) {
			c := r.World()
			me := c.Rank()
			const bs = 16
			send := make([]byte, bs*n)
			for j := 0; j < n; j++ {
				for k := 0; k < bs; k++ {
					send[j*bs+k] = byte(me*16 + j) // block destined for rank j
				}
			}
			recv := make([]byte, bs*n)
			if err := c.Alltoall(send, recv, bs); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < n; j++ {
				want := byte(j*16 + me)
				for k := 0; k < bs; k++ {
					if recv[j*bs+k] != want {
						t.Errorf("n=%d rank %d: block from %d = %d, want %d", n, me, j, recv[j*bs+k], want)
						return
					}
				}
			}
		})
	}
}

func TestAlltoallvUnevenLarge(t *testing.T) {
	// Mixed eager and rendezvous blocks in one exchange.
	const n = 4
	runWorld(t, testCfg(n), func(r *Rank) {
		c := r.World()
		me := c.Rank()
		scounts := make([]int, n)
		sdispl := make([]int, n)
		rcounts := make([]int, n)
		rdispl := make([]int, n)
		total := 0
		for j := 0; j < n; j++ {
			scounts[j] = 100 + 3000*((me+j)%3) // 100, 3100 or 6100 bytes
			sdispl[j] = total
			total += scounts[j]
		}
		send := make([]byte, total)
		for j := 0; j < n; j++ {
			for k := 0; k < scounts[j]; k++ {
				send[sdispl[j]+k] = byte(me + j*3 + k)
			}
		}
		rtotal := 0
		for j := 0; j < n; j++ {
			rcounts[j] = 100 + 3000*((j+me)%3)
			rdispl[j] = rtotal
			rtotal += rcounts[j]
		}
		recv := make([]byte, rtotal)
		if err := c.Alltoallv(send, scounts, sdispl, recv, rcounts, rdispl); err != nil {
			t.Error(err)
			return
		}
		for j := 0; j < n; j++ {
			for k := 0; k < rcounts[j]; k += 61 {
				if recv[rdispl[j]+k] != byte(j+me*3+k) {
					t.Errorf("rank %d block from %d corrupted at %d", me, j, k)
					return
				}
			}
		}
	})
}

// A receive buffer shorter than the result is an error, not a truncated
// result or a panic: three ranks, a 16-byte sendbuf and an 8-byte recvbuf (at
// the root, for Reduce; an out one value short, for AllgatherI64), and for
// Alltoallv receive vectors one rank short or three 8-byte blocks over a
// 16-byte recvbuf.
func TestCollectivesRefuseShortRecvbuf(t *testing.T) {
	const n = 3
	cases := []struct {
		name string
		call func(c *Comm) error
		fail func(c *Comm) bool // the ranks that must see the error; the others must not
	}{
		{"Reduce", func(c *Comm) error {
			return c.Reduce(make([]byte, 16), make([]byte, 8), SumI64, 0)
		}, func(c *Comm) bool { return c.Rank() == 0 }},
		{"AlltoallvShortVectors", func(c *Comm) error {
			v := []int{8, 8, 8}
			return c.Alltoallv(make([]byte, 24), v, []int{0, 8, 16}, make([]byte, 24), v[:2], []int{0, 8})
		}, func(*Comm) bool { return true }},
		{"AlltoallvShortRecvbuf", func(c *Comm) error {
			v, d := []int{8, 8, 8}, []int{0, 8, 16}
			return c.Alltoallv(make([]byte, 24), v, d, make([]byte, 16), v, d)
		}, func(*Comm) bool { return true }},
		{"AllgatherI64", func(c *Comm) error {
			return c.AllgatherI64(make([]int64, 2), make([]int64, 2*n-1))
		}, func(*Comm) bool { return true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runWorld(t, testCfg(n), func(r *Rank) {
				c := r.World()
				err := tc.call(c)
				if want := tc.fail(c); (err != nil) != want {
					t.Errorf("rank %d: err = %v, error wanted: %v", c.Rank(), err, want)
				}
			})
		})
	}
}

// A collective's temporaries live in the rank's scratch, and nothing a caller
// holds may be a view of it: the scratch is scribbled over after every call,
// and every result must still be the exact sum.
func TestCollectiveScratchNotRetained(t *testing.T) {
	const n = 4
	runWorld(t, testCfg(n), func(r *Rank) {
		c := r.World()
		me := c.Rank()
		scribble := func() {
			if r.coll != nil {
				b := (*r.coll)[:cap(*r.coll)]
				for k := range b {
					b[k] = 0xff
				}
			}
		}
		if err := c.Barrier(); err != nil {
			t.Error(err)
			return
		}
		scribble()
		small := cap(*r.coll)
		ints := make([]int64, 1024) // 8 KB: grows the scratch
		for k := range ints {
			ints[k] = int64(me + k)
		}
		if err := c.AllreduceI64(ints, SumI64); err != nil {
			t.Error(err)
			return
		}
		scribble()
		if cap(*r.coll) <= small {
			t.Errorf("rank %d: the 8 KB AllreduceI64 left the scratch at %d bytes", me, cap(*r.coll))
		}
		floats := []float64{float64(me), 0.5 * float64(me)}
		if err := c.AllreduceF64(floats, SumF64); err != nil {
			t.Error(err)
			return
		}
		scribble()
		for k, v := range ints {
			if want := int64(n*k + n*(n-1)/2); v != want {
				t.Errorf("rank %d: AllreduceI64[%d] = %d, want %d", me, k, v, want)
				break
			}
		}
		if want := []float64{6, 3}; floats[0] != want[0] || floats[1] != want[1] {
			t.Errorf("rank %d: AllreduceF64 = %v, want %v", me, floats, want)
		}
	})
}

func TestCommSplit(t *testing.T) {
	const n = 8
	runWorld(t, testCfg(n), func(r *Rank) {
		c := r.World()
		me := c.Rank()
		sub, err := c.Split(me%2, -me) // negative key reverses order within color
		if err != nil {
			t.Error(err)
			return
		}
		if sub.Size() != n/2 {
			t.Errorf("sub size = %d", sub.Size())
			return
		}
		// Highest world rank of my parity should be rank 0 in sub.
		sum := []int64{int64(me)}
		if err := sub.AllreduceI64(sum, SumI64); err != nil {
			t.Error(err)
			return
		}
		want := int64(0)
		for i := me % 2; i < n; i += 2 {
			want += int64(i)
		}
		if sum[0] != want {
			t.Errorf("split allreduce = %d, want %d", sum[0], want)
		}
		// Key ordering check.
		if me == n-1 && sub.Rank() != 0 {
			t.Errorf("rank %d has sub-rank %d, want 0 (reverse key)", me, sub.Rank())
		}
	})
}

// A second communicator over the same ranks gets its own context from
// allocContext: a message sent on one never matches a receive on the other.
func TestSplitContextIsolation(t *testing.T) {
	const n = 4
	runWorld(t, testCfg(n), func(r *Rank) {
		c := r.World()
		d, err := c.Split(0, r.Rank())
		if err != nil {
			t.Error(err)
			return
		}
		// A message sent on d must not match a receive on c.
		if r.Rank() == 0 {
			if err := d.Send(1, 0, []byte("dup")); err != nil {
				t.Error(err)
			}
			if err := c.Send(1, 0, []byte("wld")); err != nil {
				t.Error(err)
			}
		} else if r.Rank() == 1 {
			buf := make([]byte, 8)
			st, err := c.Recv(buf, 0, 0)
			if err != nil || string(buf[:st.Count]) != "wld" {
				t.Errorf("world recv got %q, err %v", buf[:st.Count], err)
			}
			st, err = d.Recv(buf, 0, 0)
			if err != nil || string(buf[:st.Count]) != "dup" {
				t.Errorf("dup recv got %q, err %v", buf[:st.Count], err)
			}
		}
	})
}

// Property: Allreduce(sum) over random vectors equals the serial sum,
// regardless of rank count.
func TestPropertyAllreduceMatchesSerial(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%6 + 2
		rng := rand.New(rand.NewSource(seed))
		vecs := make([][]float64, n)
		want := make([]float64, 4)
		for i := range vecs {
			vecs[i] = make([]float64, 4)
			for j := range vecs[i] {
				vecs[i][j] = float64(rng.Intn(1000)) / 8
				want[j] += vecs[i][j]
			}
		}
		ok := true
		cfg := testCfg(n)
		w, err := Run(cfg, func(r *Rank) {
			got := slices.Clone(vecs[r.Rank()])
			if err := r.World().AllreduceF64(got, SumF64); err != nil {
				ok = false
				return
			}
			for j := range want {
				if got[j] != want[j] {
					ok = false
				}
			}
		})
		return err == nil && ok && w != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierSpinwaitPenalty reproduces the Figure 4a effect: on cLAN,
// spinwait barriers are slower than polling barriers because some processes
// overrun the spin budget and pay the blocking-wait wakeup.
func TestBarrierSpinwaitPenalty(t *testing.T) {
	barrierTime := func(mode int) simnet.Duration {
		cfg := testCfg(8)
		cfg.WaitMode = 0
		if mode == 1 {
			cfg.WaitMode = 1 // via.WaitSpin
		}
		var elapsed simnet.Duration
		runWorld(t, cfg, func(r *Rank) {
			c := r.World()
			if err := c.Barrier(); err != nil { // warm up connections
				t.Error(err)
				return
			}
			start := r.Proc().Now()
			for i := 0; i < 50; i++ {
				if err := c.Barrier(); err != nil {
					t.Error(err)
					return
				}
			}
			if r.Rank() == 0 {
				elapsed = r.Proc().Now().Sub(start) / 50
			}
		})
		return elapsed
	}
	poll := barrierTime(0)
	spin := barrierTime(1)
	if spin <= poll {
		t.Errorf("spinwait barrier %v not slower than polling %v", spin, poll)
	}
}

// TestBviaBarrierOnDemandBeatsStatic reproduces the headline Figure 4b
// effect: on Berkeley VIA, the barrier is faster under on-demand because
// fewer open VIs mean less firmware doorbell scanning per message.
func TestBviaBarrierOnDemandBeatsStatic(t *testing.T) {
	barrierTime := func(policy string) simnet.Duration {
		cfg := testCfg(8)
		cfg.Device = "bvia"
		cfg.Policy = policy
		var elapsed simnet.Duration
		runWorld(t, cfg, func(r *Rank) {
			c := r.World()
			if err := c.Barrier(); err != nil {
				t.Error(err)
				return
			}
			start := r.Proc().Now()
			for i := 0; i < 50; i++ {
				if err := c.Barrier(); err != nil {
					t.Error(err)
					return
				}
			}
			if r.Rank() == 0 {
				elapsed = r.Proc().Now().Sub(start) / 50
			}
		})
		return elapsed
	}
	od := barrierTime("ondemand")
	st := barrierTime("static-p2p")
	if od >= st {
		t.Errorf("BVIA on-demand barrier %v not faster than static %v", od, st)
	}
}

func TestBytesConversionHelpers(t *testing.T) {
	v := []float64{1.5, -2.25, 1e300}
	got := BytesF64(F64Bytes(v))
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("f64 round trip: %v", got)
		}
	}
	iv := []int64{-1, 0, 1 << 62}
	ib := make([]byte, 8*len(iv))
	putI64s(ib, iv)
	igot := make([]int64, len(iv))
	getI64s(ib, igot)
	for i := range iv {
		if igot[i] != iv[i] {
			t.Fatalf("i64 round trip: %v", igot)
		}
	}
	if !bytes.Equal(F64Bytes(nil), []byte{}) && F64Bytes(nil) != nil {
		t.Fatal("nil handling")
	}
}

func TestOpsCombine(t *testing.T) {
	a := F64Bytes([]float64{1, 5, -3})
	b := F64Bytes([]float64{2, 4, -4})
	SumF64.Combine(a, b)
	if got := BytesF64(a); got[0] != 3 || got[1] != 9 || got[2] != -7 {
		t.Fatalf("sum = %v", got)
	}
	a = F64Bytes([]float64{1, 5})
	MaxF64.Combine(a, F64Bytes([]float64{2, 4}))
	if got := BytesF64(a); got[0] != 2 || got[1] != 5 {
		t.Fatalf("max = %v", got)
	}
	xa := i64Bytes([]int64{9})
	MaxI64.Combine(xa, i64Bytes([]int64{4}))
	maxi := make([]int64, 1)
	getI64s(xa, maxi)
	if maxi[0] != 9 {
		t.Fatal("maxi")
	}
}
