package simnet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// stormAbort stands in for mpi's Abort sentinel: the process records the
// real failure with Failf, then panics with a private value to stop running.
type stormAbort struct{}

// wakeStorm runs a seeded 8-process storm of timers, cross-process wakes,
// timeouts, same-instant callbacks (the clustered timestamps of
// TestEventOrderGoldenFIFO) and processes spawned from inside a running
// process. fault picks how p3 ends at step 20: "" (it finishes), "panic"
// (while the others are parked mid-loop) or "abort". It returns a digest of
// the trace every process appended to and the first line of Run's error.
func wakeStorm(seed int64, fault string) (digest uint64, lines int, errLine string) {
	s := New(seed)
	h := fnv.New64a()
	note := func(format string, args ...interface{}) {
		fmt.Fprintf(h, format+"\n", args...)
		lines++
	}
	const n = 8
	procs := make([]*Proc, n)
	body := func(i int) func(p *Proc) {
		return func(p *Proc) {
			r := rand.New(rand.NewSource(seed*100 + int64(i)))
			for step := 0; step < 40; step++ {
				if i == 3 && step == 20 && fault != "" {
					note("%d fails at %d", i, p.Now())
					if fault == "abort" {
						s.Failf("mpi: rank %d called Abort(%d): %s", i, 7, "storm")
						panic(stormAbort{})
					}
					panic("boom")
				}
				switch r.Intn(6) {
				case 0:
					p.Sleep(Duration(r.Intn(17)) * 10)
				case 1:
					woken := p.ParkTimeout(Duration(1+r.Intn(17)) * 10)
					note("%d woken=%v", i, woken)
				case 2:
					if q := procs[r.Intn(n)]; q != nil {
						q.Wake()
					}
				case 3:
					if q := procs[r.Intn(n)]; q != nil {
						s.After(Duration(r.Intn(3))*10, func() {
							note("cb %d->%d at %d", i, q.ID(), s.Now())
							q.Wake()
						})
					}
				case 4:
					p.Sleep(0)
				case 5:
					p.Compute(Duration(r.Intn(5)) * 10)
				}
				note("%d.%d at %d", i, step, p.Now())
			}
		}
	}
	// p0..p3 exist before Run; p0 spawns the other four from inside the
	// simulation, two at its own instant and two in the future.
	for i := 1; i < 4; i++ {
		procs[i] = s.Spawn(fmt.Sprintf("p%d", i), Time(i)*10, body(i))
	}
	procs[0] = s.Spawn("p0", 0, func(p *Proc) {
		for i := 4; i < n; i++ {
			procs[i] = s.Spawn(fmt.Sprintf("p%d", i), p.Now().Add(Duration(i%2)*30), body(i))
			p.Sleep(10)
		}
		body(0)(p)
	})
	if err := s.Run(); err != nil {
		errLine, _, _ = strings.Cut(err.Error(), "\n")
	}
	note("end at %d after %d events", s.Now(), s.EventCount)
	return h.Sum64(), lines, errLine
}

// TestHandoffOrderEquivalence pins the storm's trace digests and error texts
// to the values the channel-handoff scheduler (the commit before the
// coroutine switch) produced: how control moves between processes must not
// change which event runs next, nor what a failed run reports.
func TestHandoffOrderEquivalence(t *testing.T) {
	for _, tc := range []struct {
		fault   string
		digest  uint64
		lines   int
		errLine string
	}{
		{"", 0x42e41ab520c629d3, 416, ""},
		{"panic", 0xeeea98fe3370b285, 185, `process "p3" panicked: boom`},
		{"abort", 0xeeea98fe3370b285, 185, "mpi: rank 3 called Abort(7): storm"},
	} {
		digest, lines, errLine := wakeStorm(11, tc.fault)
		if digest != tc.digest || lines != tc.lines || errLine != tc.errLine {
			t.Errorf("fault %q: digest %#x over %d lines, error %q; the parent recorded %#x over %d lines, error %q",
				tc.fault, digest, lines, errLine, tc.digest, tc.lines, tc.errLine)
		}
	}
}

// TestRunReleasesProcesses: a Run that ends with processes still parked
// (deadlock, deadline, a panic or Failf elsewhere) must unwind them instead
// of leaving them blocked forever, without running any more of their code.
func TestRunReleasesProcesses(t *testing.T) {
	ends := map[string]func(s *Sim){
		"deadlock": func(s *Sim) {},
		"deadline": func(s *Sim) {
			s.SetDeadline(Time(Millisecond))
			s.Spawn("ticker", 0, func(p *Proc) {
				for {
					p.Sleep(Second)
				}
			})
		},
		"panic": func(s *Sim) {
			s.Spawn("boom", Time(Microsecond), func(p *Proc) { panic("kapow") })
		},
		"failf": func(s *Sim) {
			s.After(Microsecond, func() { s.Failf("injected") })
		},
	}
	for name, arrange := range ends {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				s := New(int64(i))
				resumed, unwound := 0, 0
				for k := 0; k < 4; k++ {
					s.Spawn(fmt.Sprintf("stuck%d", k), 0, func(p *Proc) {
						defer func() { unwound++ }()
						p.Park()
						resumed++
					})
				}
				arrange(s)
				if err := s.Run(); err == nil {
					t.Fatal("run was meant to fail")
				}
				if resumed != 0 || unwound != 4 {
					t.Fatalf("parked processes: %d resumed, %d unwound; want 0 and 4", resumed, unwound)
				}
				if s.live < 4 {
					t.Fatalf("live = %d: an unwound process was counted as finished", s.live)
				}
			}
			if got := runtime.NumGoroutine(); got > base {
				t.Fatalf("%d goroutines after 50 failed runs, %d before", got, base)
			}
		})
	}
}

// TestReleasedProcessCannotBlock: a deferred call that blocks while its
// process is being unwound must not dispatch events; it unwinds further.
func TestReleasedProcessCannotBlock(t *testing.T) {
	s := New(1)
	afterSleep := false
	s.Spawn("stuck", 0, func(p *Proc) {
		defer func() {
			p.Sleep(Microsecond)
			afterSleep = true
		}()
		p.Park()
	})
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	// The one event of the run is the process start; the deferred Sleep's
	// timer is queued but never dispatched.
	if afterSleep || s.EventCount != 1 || s.Now() != 0 {
		t.Fatalf("unwinding ran the simulation: afterSleep=%v events=%d now=%v", afterSleep, s.EventCount, s.Now())
	}
}

// TestHandoffCounters pins the scheduler's self-metrics on a two-process
// ping-pong. Each round has four events: a's 1µs timer, which a dispatches
// itself while b is parked (a self-wake), a's wake of b (a handoff), then
// the same from b. The exceptions are the two process starts and a's first
// timer, which b dispatches because b parked last: three more handoffs and
// one self-wake fewer. The counts are properties of the event order, so
// they cannot depend on GOMAXPROCS.
func TestHandoffCounters(t *testing.T) {
	const rounds = 100
	run := func() (events, handoffs, selfWakes uint64) {
		s := New(1)
		var a, b *Proc
		a = s.Spawn("a", 0, func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Sleep(Microsecond)
				b.Wake()
				p.Park()
			}
		})
		b = s.Spawn("b", 0, func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Park()
				p.Sleep(Microsecond)
				a.Wake()
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.EventCount, s.Handoffs, s.SelfWakes
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		events, handoffs, selfWakes := run()
		if events != 2+4*rounds || handoffs != 3+2*rounds || selfWakes != 2*rounds-1 {
			t.Errorf("GOMAXPROCS=%d: %d events, %d handoffs, %d self-wakes; want %d, %d, %d",
				procs, events, handoffs, selfWakes, 2+4*rounds, 3+2*rounds, 2*rounds-1)
		}
	}
}
