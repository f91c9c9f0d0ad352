package bench

// Scheduler-core workloads for the wall-clock measurement rail. Each
// workload exercises one hot path of the internal/simnet scheduler — timer
// wakes, park/wake handoffs, and callback churn — with no MPI or VIA model
// on top, so its event count and virtual elapsed time are pure functions of
// the workload shape. benchmark/ times these against the host clock (its
// simnet.*_ns_per_event metrics); this package stays wall-clock-free because
// it is on the determinism-scanned side of the policy.

import (
	"fmt"

	"viampi/internal/simnet"
)

// SimCoreResult is one scheduler-core workload outcome. Events and
// VirtualNS are deterministic for a given shape; wall-clock timing is the
// caller's job.
type SimCoreResult struct {
	Events    uint64 // scheduler events dispatched
	VirtualNS int64  // virtual time consumed by the run
}

// SimCoreSleepCycle runs procs processes each doing cycles Sleep(1µs) calls:
// the timer-wake hot path (heap push + typed wake dispatch) with the
// self-wake fast path dominant at procs == 1 and cross-proc handoffs
// appearing as procs grows.
func SimCoreSleepCycle(procs, cycles int) (SimCoreResult, error) {
	s := simnet.New(1)
	for i := 0; i < procs; i++ {
		s.Spawn(fmt.Sprintf("sleeper%d", i), 0, func(p *simnet.Proc) {
			for c := 0; c < cycles; c++ {
				p.Sleep(simnet.Microsecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		return SimCoreResult{}, err
	}
	return SimCoreResult{
		Events:    s.EventCount,
		VirtualNS: int64(s.Now()),
	}, nil
}

// SimCoreParkWake runs rounds ping-pong rounds between two processes using
// raw Park/Wake: the cross-process handoff path (a yield to Run and a resume
// of the woken process per switch) with no timers involved beyond the wake
// events themselves.
func SimCoreParkWake(rounds int) (SimCoreResult, error) {
	s := simnet.New(1)
	var a, b *simnet.Proc
	a = s.Spawn("a", 0, func(p *simnet.Proc) {
		for r := 0; r < rounds; r++ {
			b.WakeAfter(simnet.Microsecond)
			p.Park()
		}
	})
	b = s.Spawn("b", 0, func(p *simnet.Proc) {
		for r := 0; r < rounds; r++ {
			p.Park()
			a.WakeAfter(simnet.Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		return SimCoreResult{}, err
	}
	return SimCoreResult{
		Events:    s.EventCount,
		VirtualNS: int64(s.Now()),
	}, nil
}

// SimCoreEventChurn fires a self-rescheduling ladder of 64 callbacks with
// coprime-ish strides until events callbacks have run: the pure heap
// push/pop path (evFunc events, no processes at all).
func SimCoreEventChurn(events int) (SimCoreResult, error) {
	s := simnet.New(1)
	const ladder = 64
	fired := 0
	var arm func(stride simnet.Duration) func()
	arm = func(stride simnet.Duration) func() {
		var fn func()
		fn = func() {
			fired++
			if fired+ladder <= events {
				s.After(stride, fn)
			}
		}
		return fn
	}
	for i := 0; i < ladder; i++ {
		s.After(simnet.Duration(i+1), arm(simnet.Duration(i+1)))
	}
	if err := s.Run(); err != nil {
		return SimCoreResult{}, err
	}
	return SimCoreResult{
		Events:    s.EventCount,
		VirtualNS: int64(s.Now()),
	}, nil
}
