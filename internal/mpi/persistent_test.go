package mpi

import (
	"testing"

	"viampi/internal/simnet"
)

func TestPersistentSendRecv(t *testing.T) {
	const iters = 20
	runWorld(t, testCfg(2), func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			buf := make([]byte, 8)
			ps, err := c.SendInit(1, 3, buf)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				buf[0] = byte(i) // persistent semantics: buffer re-read at each Start
				if err := ps.Start(); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Wait(ps.Request()); err != nil {
					t.Error(err)
					return
				}
			}
			// Late matching message for the double-start check below.
			r.Proc().Sleep(simnet.D(2e6))
			if err := c.Send(1, 9, []byte("late")); err != nil {
				t.Error(err)
			}
		} else {
			in := make([]byte, 8)
			pr, err := c.RecvInit(in, 0, 3)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				if err := pr.Start(); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Wait(pr.Request()); err != nil {
					t.Error(err)
					return
				}
				if in[0] != byte(i) {
					t.Errorf("iteration %d got %d", i, in[0])
					return
				}
			}
			// Restarting while active is rejected: a receive with no
			// matching message yet cannot have completed.
			late := make([]byte, 8)
			p9, err := c.RecvInit(late, 0, 9)
			if err != nil {
				t.Error(err)
				return
			}
			if err := p9.Start(); err != nil {
				t.Error(err)
				return
			}
			if err := p9.Start(); err == nil {
				t.Error("double Start accepted on pending receive")
			}
			kept := p9.Request()
			if st, err := r.Wait(kept); err != nil || string(late[:st.Count]) != "late" {
				t.Errorf("late activation: %+v, %v", st, err)
			}
			// The wait ended the activation: its handle is stale, and the
			// template may start again.
			if _, err := r.Wait(kept); err == nil {
				t.Error("Wait accepted the completed activation's handle")
			}
			if p9.Request().live() {
				t.Error("the template is still active after its wait")
			}
		}
	})
}

func TestStartallPersistentExchange(t *testing.T) {
	const n = 4
	runWorld(t, testCfg(n), func(r *Rank) {
		c := r.World()
		me := c.Rank()
		left, right := (me+n-1)%n, (me+1)%n
		out := []byte{byte(me)}
		inL := make([]byte, 4)
		inR := make([]byte, 4)
		sl, err := c.SendInit(left, 1, out)
		if err != nil {
			t.Error(err)
			return
		}
		sr, err := c.SendInit(right, 2, out)
		if err != nil {
			t.Error(err)
			return
		}
		rl, err := c.RecvInit(inL, left, 2)
		if err != nil {
			t.Error(err)
			return
		}
		rr, err := c.RecvInit(inR, right, 1)
		if err != nil {
			t.Error(err)
			return
		}
		for it := 0; it < 10; it++ {
			if err := Startall(rl, rr, sl, sr); err != nil {
				t.Error(err)
				return
			}
			if err := r.WaitallPersistent(rl, rr, sl, sr); err != nil {
				t.Error(err)
				return
			}
			if inL[0] != byte(left) || inR[0] != byte(right) {
				t.Errorf("iteration %d: got %d/%d", it, inL[0], inR[0])
				return
			}
		}
	})
}

func TestPersistentValidation(t *testing.T) {
	runWorld(t, testCfg(2), func(r *Rank) {
		c := r.World()
		if _, err := c.SendInit(9, 0, nil); err == nil {
			t.Error("bad dst accepted")
		}
		if _, err := c.RecvInit(nil, 9, 0); err == nil {
			t.Error("bad src accepted")
		}
		if _, err := c.RecvInit(nil, AnySource, 0); err != nil {
			t.Error("AnySource rejected")
		}
	})
}
