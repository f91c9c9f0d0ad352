package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := New(1)
	var end Time
	s.Spawn("a", 0, func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.Sleep(7 * Microsecond)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(12*Microsecond) {
		t.Fatalf("end = %v, want 12µs", end)
	}
}

func TestEventOrderingSameTimestamp(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("event order %v not FIFO at equal timestamps", order)
		}
	}
}

func TestSpawnStartTimes(t *testing.T) {
	s := New(1)
	var starts []Time
	for i := 0; i < 3; i++ {
		at := Time(i) * Time(Millisecond)
		s.Spawn(fmt.Sprintf("p%d", i), at, func(p *Proc) {
			starts = append(starts, p.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, Time(Millisecond), Time(2 * Millisecond)}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
}

func TestParkWake(t *testing.T) {
	s := New(1)
	var a *Proc
	var wokenAt Time
	a = s.Spawn("sleeper", 0, func(p *Proc) {
		p.Park()
		wokenAt = p.Now()
	})
	s.Spawn("waker", 0, func(p *Proc) {
		p.Sleep(42 * Microsecond)
		a.Wake()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != Time(42*Microsecond) {
		t.Fatalf("wokenAt = %v, want 42µs", wokenAt)
	}
}

func TestParkTimeout(t *testing.T) {
	s := New(1)
	var got bool
	var at Time
	s.Spawn("a", 0, func(p *Proc) {
		got = p.ParkTimeout(10 * Microsecond)
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("ParkTimeout reported wake, want timeout")
	}
	if at != Time(10*Microsecond) {
		t.Fatalf("resumed at %v, want 10µs", at)
	}
}

func TestParkTimeoutWokenEarly(t *testing.T) {
	s := New(1)
	var a *Proc
	var got bool
	var at Time
	a = s.Spawn("a", 0, func(p *Proc) {
		got = p.ParkTimeout(100 * Microsecond)
		at = p.Now()
	})
	s.Spawn("b", 0, func(p *Proc) {
		p.Sleep(3 * Microsecond)
		a.Wake()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !got || at != Time(3*Microsecond) {
		t.Fatalf("got=%v at=%v, want wake at 3µs", got, at)
	}
}

func TestStaleWakeIgnored(t *testing.T) {
	s := New(1)
	var a *Proc
	hits := 0
	a = s.Spawn("a", 0, func(p *Proc) {
		p.Park()
		hits++
		p.Sleep(50 * Microsecond) // a second Wake arriving during this sleep must not disturb it
		hits++
	})
	s.Spawn("b", 0, func(p *Proc) {
		p.Sleep(Microsecond)
		a.Wake()
		p.Sleep(Microsecond)
		a.Wake() // stale: a is now sleeping on its own timer
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(1)
	s.Spawn("stuck", 0, func(p *Proc) { p.Park() })
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestPanicPropagation(t *testing.T) {
	s := New(1)
	s.Spawn("boom", 0, func(p *Proc) { panic("kapow") })
	err := s.Run()
	if err == nil {
		t.Fatal("expected panic error")
	}
}

func TestDeadline(t *testing.T) {
	s := New(1)
	s.SetDeadline(Time(Millisecond))
	s.Spawn("a", 0, func(p *Proc) {
		for {
			p.Sleep(Second)
		}
	})
	if err := s.Run(); err == nil {
		t.Fatal("expected deadline error")
	}
}

// TestDeadlineBoundary pins the deadline contract: an event at exactly the
// deadline runs; the first event past it trips the error before executing,
// and the tripping event is left unconsumed.
func TestDeadlineBoundary(t *testing.T) {
	s := New(1)
	s.SetDeadline(Time(Millisecond))
	atDeadline, pastDeadline := false, false
	s.At(Time(Millisecond), func() { atDeadline = true })
	s.At(Time(Millisecond)+1, func() { pastDeadline = true })
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if !atDeadline {
		t.Fatal("event at exactly the deadline must run")
	}
	if pastDeadline {
		t.Fatal("event past the deadline must not run")
	}
	if s.Now() != Time(Millisecond) {
		t.Fatalf("clock advanced past the deadline: now=%v", s.Now())
	}
	// The tripping event is still queued: clearing the deadline and
	// re-running executes it.
	s.SetDeadline(0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !pastDeadline {
		t.Fatal("unconsumed event did not survive the deadline error")
	}
}

func TestComputeAccounting(t *testing.T) {
	s := New(1)
	var p0 *Proc
	p0 = s.Spawn("a", 0, func(p *Proc) {
		p.Compute(30 * Microsecond)
		p.Sleep(10 * Microsecond)
		p.Compute(5 * Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if p0.BusyTime() != 35*Microsecond {
		t.Fatalf("busy = %v, want 35µs", p0.BusyTime())
	}
}

func TestSpawnDuringRun(t *testing.T) {
	s := New(1)
	var childRan bool
	s.Spawn("parent", 0, func(p *Proc) {
		p.Sleep(Microsecond)
		s.Spawn("child", p.Now().Add(Microsecond), func(q *Proc) { childRan = true })
		p.Sleep(10 * Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestYieldLetsPendingEventsRun(t *testing.T) {
	s := New(1)
	var seen bool
	s.Spawn("a", 0, func(p *Proc) {
		s.At(p.Now(), func() { seen = true })
		p.Sleep(0)
		if !seen {
			t.Error("event at same instant did not run across Sleep(0)")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism runs a randomized workload twice with the same seed and
// asserts identical event traces — the core property the experiments rely on.
func TestDeterminism(t *testing.T) {
	runOnce := func(seed int64) []string {
		s := New(seed)
		var trace []string
		procs := make([]*Proc, 8)
		for i := 0; i < 8; i++ {
			i := i
			procs[i] = s.Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
				r := rand.New(rand.NewSource(seed + int64(i)))
				for step := 0; step < 50; step++ {
					p.Sleep(Duration(r.Intn(1000)) * Nanosecond)
					trace = append(trace, fmt.Sprintf("%d@%d", i, p.Now()))
					if r.Intn(3) == 0 {
						procs[(i+1)%8].Wake()
					}
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a := runOnce(42)
	b := runOnce(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any sequence of sleep durations, the final clock equals the
// max over processes of their duration sums (processes run independently).
func TestPropertySleepSums(t *testing.T) {
	f := func(durs [][]uint16) bool {
		if len(durs) == 0 || len(durs) > 16 {
			return true
		}
		s := New(7)
		var want Time
		for i, ds := range durs {
			if len(ds) > 64 {
				ds = ds[:64]
			}
			var sum Time
			for _, d := range ds {
				sum = sum.Add(Duration(d))
			}
			if sum > want {
				want = sum
			}
			ds := ds
			s.Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
				for _, d := range ds {
					p.Sleep(Duration(d))
				}
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return s.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: events always dispatch in non-decreasing time order regardless of
// the order they were scheduled in.
func TestPropertyEventMonotonicity(t *testing.T) {
	f := func(times []uint32) bool {
		s := New(3)
		var fired []Time
		for _, at := range times {
			at := Time(at)
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationConversions(t *testing.T) {
	if D(time.Microsecond) != Microsecond {
		t.Fatal("D(1µs) != Microsecond")
	}
	if (1500 * Nanosecond).Micros() != 1.5 {
		t.Fatal("Micros conversion wrong")
	}
	if Time(3*Second).Seconds() != 3.0 {
		t.Fatal("Seconds conversion wrong")
	}
}

func TestManyProcessesStress(t *testing.T) {
	s := New(9)
	const n = 200
	done := 0
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
			for k := 0; k < 20; k++ {
				p.Sleep(Duration(1+k) * Microsecond)
			}
			done++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
}

// The random source is made at the first Rand call, not by New, and draws the
// stream a source seeded with New's seed draws: a run that draws keeps its
// numbers, and one that never draws never allocates the source.
func TestRandIsSeededLazily(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -42} {
		s := New(seed)
		if s.rng != nil {
			t.Fatalf("seed %d: New made the random source before any draw", seed)
		}
		want := rand.New(rand.NewSource(seed))
		got := s.Rand()
		for i := range 100 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: draw %d is %d, want %d", seed, i, g, w)
			}
		}
		if s.Rand() != got {
			t.Fatalf("seed %d: a second Rand call made a second source", seed)
		}
	}
}
