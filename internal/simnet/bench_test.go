package simnet

import (
	"testing"
)

// BenchmarkSimCore is the scheduler's steady-state cycle: a process arms a
// timer, parks, pops its own wake event in place and carries on (the
// self-wake fast path: no switch). One iteration = one Sleep cycle (timer
// push, heap pop, dispatch, park) — the unit every MPI call, progress poll,
// and device event in this repo is built from. The acceptance bar is 0
// allocs/op; the events/s metric is the repo's core speed limit.
func BenchmarkSimCore(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	s.Spawn("w", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(s.EventCount)/sec, "events/s")
	}
}

// BenchmarkSimCoreParkWake measures the cross-process wake path: two
// processes ping-ponging Park/Wake at the same instant, no timers involved.
// One iteration = one full round trip (two wakes, two handoffs through Run).
func BenchmarkSimCoreParkWake(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	var a, c *Proc
	a = s.Spawn("a", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Park()
			c.Wake()
		}
	})
	c = s.Spawn("c", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			a.Wake()
			p.Park()
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(s.EventCount)/sec, "events/s")
	}
}

// BenchmarkSimCoreEventChurn measures raw heap throughput with no processes:
// a ladder of 64 pre-bound callbacks, each rescheduling itself at a distinct
// stride, keeps the heap at depth 64 while events push and pop in steady
// state. One iteration = one event dispatched.
func BenchmarkSimCoreEventChurn(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	fired := 0
	const ladder = 64
	for i := 0; i < ladder; i++ {
		stride := Duration(1 + i)
		var fn func()
		fn = func() {
			fired++
			if fired+ladder <= b.N {
				s.After(stride, fn)
			}
		}
		s.After(stride, fn)
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(s.EventCount)/sec, "events/s")
	}
}
