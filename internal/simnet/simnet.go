// Package simnet provides a deterministic discrete-event simulator with
// cooperative, coroutine-backed processes.
//
// The simulator owns a virtual clock. A simulation is one logical thread:
// Run's caller and the processes are coroutines of each other, so simulated
// code needs no locking and every run with the same seed is bit-identical.
// Processes advance the clock only through blocking primitives (Sleep,
// Compute, Park*); everything else executes in zero virtual time.
//
// This package is the substrate for the VIA device models: NIC and wire
// behaviour is expressed as events, while MPI ranks are processes. Every
// paper figure funnels through Sim.Run, so the scheduler hot path (event
// admission, heap maintenance, dispatch, park) is kept allocation-free in
// steady state; the viampi-vet hotalloc rule enforces it.
//
// A device model schedules work with AtAction: the event is a pre-allocated
// object of the model's own (a frame in flight, a descriptor awaiting its
// completion) that the scheduler calls back through the one-method Action
// interface, so a message crosses fabric and via without allocating either.
// At and After take a plain func for the rare paths (handshake timers, test
// scaffolding) where a closure's allocation does not matter.
package simnet

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"

	"viampi/internal/obs"
)

// Time is an absolute virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely from
// time.Duration for readability at call sites.
type Duration int64

// Handy duration units in virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// D converts a time.Duration into a virtual Duration.
func D(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros reports the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

func (d Duration) String() string { return time.Duration(d).String() }

// Seconds reports the timestamp as floating-point seconds since start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros reports the timestamp as floating-point microseconds since start.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Add offsets a timestamp by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// Action is a scheduled occurrence that is its own event: a pre-allocated
// object the scheduler calls at the time given to AtAction, with the argument
// given there. One object may be scheduled many times (a frame fires once per
// hop, a recycled descriptor once per post); arg tells the firings apart.
type Action interface {
	Fire(arg uint64)
}

// funcAction carries a general At/After callback as an Action. A func value
// is pointer-shaped, so the conversion to the interface does not allocate.
type funcAction func()

func (f funcAction) Fire(uint64) { f() }

// evKind discriminates the scheduler's typed events. Timer wakes from
// Sleep/Compute/ParkTimeout/Wake and process starts carry their parameters
// in the event value itself and are dispatched in a switch; everything else
// is an Action, so no event allocates on its way through the scheduler.
type evKind uint8

const (
	evAction       evKind = iota // act.Fire(arg)
	evTimerWake                  // wake proc if still parked at generation arg
	evTimerTimeout               // as evTimerWake, but reports a timeout
	evProcStart                  // first dispatch of proc (emits EvProcStart)
)

// event is a scheduled occurrence. Events with equal timestamps fire in
// scheduling order (seq), which is what makes runs deterministic. Events are
// plain values: the queues below hold []event, never *event, so scheduling
// does not allocate per event.
type event struct {
	at   Time
	seq  uint64
	arg  uint64 // timer kinds: park generation to match; evAction: Fire's argument
	proc *Proc  // evTimerWake/evTimerTimeout/evProcStart
	act  Action // evAction
	kind evKind
}

// before reports whether e fires before f: earlier timestamp, or equal
// timestamp and earlier scheduling order. seq values are unique, so this is
// a strict total order.
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// eventRing is a FIFO of events scheduled at the current instant. It is the
// same-instant fast path: a wake or zero-delay callback admitted while the
// scheduler is already at its timestamp never touches the heap, and the
// ring's buffer is reused forever, so steady-state pushes do not allocate.
// The buffer length is always a power of two (see grow).
type eventRing struct {
	buf  []event
	head int
	n    int
}

func (r *eventRing) push(ev event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

func (r *eventRing) pop() event {
	ev := r.buf[r.head]
	r.buf[r.head] = event{} // release act/proc for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

// grow doubles the ring (cold path: runs O(log n) times per simulation).
func (r *eventRing) grow() {
	nb := make([]event, max(16, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

// PopFront removes q[0] in place. The backing array and its capacity stay, so
// a queue that drains and refills never reallocates; it serves the layers'
// short FIFOs (one VI's posted descriptors, one channel's stalled packets),
// where the copy is a few words.
func PopFront[T any](q []T) []T {
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return q[:n]
}

// Pop takes the last element off a free list; nil when it is empty.
func Pop[T any](free *[]*T) *T {
	k := len(*free) - 1
	if k < 0 {
		return nil
	}
	x := (*free)[k]
	*free = (*free)[:k]
	return x
}

// Carve takes the next element off a slab — objects of one kind made in one
// allocation, for an owner that knew how many it would need — by moving the
// slab's cursor; nil when the slab is used up. A take site tries its free
// list, then its slab, then grows.
func Carve[T any](slab *[]T) *T {
	s := *slab
	if len(s) == 0 {
		return nil
	}
	*slab = s[1:]
	return &s[0]
}

// Sim is a single-threaded discrete-event simulation.
// Create one with New, add processes with Spawn, then call Run.
//
// Each process is an iter.Pull coroutine of the goroutine that called Run,
// and the event loop runs on whichever of them has control. A process that
// parks keeps popping and executing events itself; if the next wake is its
// own it returns from park with no switch at all, otherwise it yields to
// Run, which resumes the woken process: two coroutine switches, never a
// trip through the Go scheduler.
type Sim struct {
	now      Time
	seq      uint64
	heap     []event   // 4-ary min-heap on (at, seq): future events
	ready    eventRing // FIFO of events at the current instant
	procs    []*Proc
	target   *Proc // process Run must resume next; set by loop on a handoff
	running  bool
	live     int // processes spawned and not yet finished
	failure  error
	deadline Time // 0 means none
	seed     int64
	rng      *rand.Rand // built from seed by the first Rand call
	obsBus   *obs.Bus

	// EventCount is the total number of events dispatched so far. Handoffs
	// counts those that moved control to another process (starts and wakes);
	// SelfWakes counts wakes a parked process dispatched for itself.
	EventCount, Handoffs, SelfWakes uint64
}

// New creates an empty simulation whose random source is seeded with seed.
// The source (some 5 kB of state) is made at the first Rand call: a run that
// never draws never pays for it.
func New(seed int64) *Sim {
	return &Sim{seed: seed}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source, seeded with
// New's seed. It must only be used from simulation context (process bodies or
// event callbacks).
func (s *Sim) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// SetObs attaches the observability bus every layer emits into. A nil bus
// (the default) disables observability at zero cost.
func (s *Sim) SetObs(b *obs.Bus) { s.obsBus = b }

// Obs returns the attached observability bus, or nil when disabled. Callers
// emit with s.Obs().Emit(...) — Emit on a nil bus is a no-op.
func (s *Sim) Obs() *obs.Bus { return s.obsBus }

// SetDeadline aborts Run with an error if virtual time would pass t: the
// deadline fires before executing any event scheduled after t, and that
// event is left unconsumed. An event at exactly t still runs. A zero t
// removes the deadline.
func (s *Sim) SetDeadline(t Time) { s.deadline = t }

// schedule admits an event. Events at or before the current instant while
// the simulation is running go to the ready FIFO (they fire this instant, in
// seq order, without re-heapifying); future events go to the heap. Ordering
// stays total because every event already in the heap at the current
// timestamp was admitted earlier and so carries a smaller seq than anything
// the ready ring holds.
func (s *Sim) schedule(ev event) {
	if ev.at <= s.now {
		ev.at = s.now // scheduling in the past is clamped to keep time monotonic
		if s.running {
			s.ready.push(ev)
			return
		}
	}
	s.heapPush(ev)
}

// heapPush inserts ev into the 4-ary min-heap. The slice is reused across
// pushes, so steady-state inserts do not allocate (growth is amortized).
func (s *Sim) heapPush(ev event) {
	h := append(s.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if h[parent].before(&ev) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	s.heap = h
}

// heapPop removes and returns the minimum event.
func (s *Sim) heapPop() event {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release act/proc for GC
	h = h[:n]
	s.heap = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error in the caller; it is clamped to now to keep time monotonic.
func (s *Sim) At(t Time, fn func()) { s.AtAction(t, funcAction(fn), 0) }

// AtAction schedules a.Fire(arg) at virtual time t (clamped to now like At).
// The scheduler keeps no state of its own for the event beyond the queue
// slot, so a caller that recycles a may do so as soon as Fire has run.
func (s *Sim) AtAction(t Time, a Action, arg uint64) {
	s.seq++
	s.schedule(event{at: t, seq: s.seq, kind: evAction, act: a, arg: arg})
}

// After schedules fn to run d from now.
func (s *Sim) After(d Duration, fn func()) { s.At(s.now.Add(d), fn) }

// Failf records a fatal simulation error; Run stops and returns it.
func (s *Sim) Failf(format string, args ...interface{}) {
	if s.failure == nil {
		s.failure = fmt.Errorf(format, args...)
	}
}

// Proc is a simulated process: a coroutine that runs only when the scheduler
// hands it control, and returns control whenever it blocks in virtual time.
type Proc struct {
	sim  *Sim
	id   int
	name string
	fn   func(p *Proc)
	// The coroutine, created at first dispatch: Run resumes the process with
	// next, the process gives control back with yield, and stop unwinds it.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	parked   bool
	parkSeq  uint64 // increments every park; stale wake events are ignored
	timedOut bool   // the wake that ended the last park was a timeout
	finished bool

	busy Duration // total time charged via Compute
}

// unwound is the private panic that unwinds a process Run has released.
type unwound struct{}

// ID returns the process's index in spawn order.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation the process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// BusyTime returns total virtual time this process spent in Compute.
func (p *Proc) BusyTime() Duration { return p.busy }

// Spawn creates a process that will begin executing fn at time start.
// It may be called before Run or from inside the simulation.
func (s *Sim) Spawn(name string, start Time, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, id: len(s.procs), name: name, fn: fn}
	s.procs = append(s.procs, p)
	s.live++
	s.seq++
	s.schedule(event{at: start, seq: s.seq, kind: evProcStart, proc: p})
	return p
}

// start creates p's coroutine when Run first resumes it (once per process).
func (p *Proc) start() {
	s := p.sim
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			r := recover()
			if _, released := r.(unwound); released {
				return // Run returned with p still parked
			}
			if r != nil {
				s.Failf("process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
			s.obsBus.Emit(obs.Event{T: int64(s.now), Kind: obs.EvProcEnd,
				Rank: int32(p.id), Peer: -1, Name: p.name})
			p.finished = true
			s.live--
			s.loop(nil) // dispatch until a handoff or the end, then back to Run
		}()
		p.fn(p)
	})
}

// park blocks the calling process until a wake event resumes it. It must be
// called from process context. The process keeps running the event loop
// itself: if the next wake is its own it returns without a switch (the
// self-wake fast path); otherwise it yields to Run, which resumes the woken
// process or, when the run is over, returns and unwinds this one.
func (p *Proc) park() {
	s := p.sim
	if !s.running {
		panic(unwound{}) // a deferred call blocked while p was being unwound
	}
	p.parked = true
	p.parkSeq++
	if !s.loop(p) && !p.yield(struct{}{}) {
		panic(unwound{}) // Run returned while p was parked
	}
}

// Sleep suspends the process for d of virtual time. Sleep(0) yields: other
// events scheduled at the current instant run before the process continues.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.seq++
	s.schedule(event{at: s.now.Add(d), seq: s.seq, kind: evTimerWake,
		proc: p, arg: p.parkSeq + 1})
	p.park()
}

// Compute charges d of virtual time as computation (CPU busy).
func (p *Proc) Compute(d Duration) {
	if d <= 0 {
		return
	}
	s := p.sim
	start := s.now
	s.seq++
	s.schedule(event{at: s.now.Add(d), seq: s.seq, kind: evTimerWake,
		proc: p, arg: p.parkSeq + 1})
	p.park()
	p.busy += s.now.Sub(start)
}

// Park suspends the process until another party calls Wake on it.
func (p *Proc) Park() { p.park() }

// ParkTimeout suspends the process until Wake or until d elapses.
// It reports true if the process was woken, false on timeout.
func (p *Proc) ParkTimeout(d Duration) bool {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.seq++
	s.schedule(event{at: s.now.Add(d), seq: s.seq, kind: evTimerTimeout,
		proc: p, arg: p.parkSeq + 1})
	p.park()
	return !p.timedOut
}

// Wake schedules p to resume at the current virtual time (plus optional
// delay). It is safe to call from any simulation context; a Wake aimed at a
// process that is not parked, or that has re-parked since, is dropped.
func (p *Proc) Wake() { p.WakeAfter(0) }

// WakeAfter schedules a wake for p after d of virtual time.
func (p *Proc) WakeAfter(d Duration) {
	s := p.sim
	seq := p.parkSeq
	if !p.parked {
		seq++ // wake the *next* park if it happens before the event fires
	}
	s.seq++
	s.schedule(event{at: s.now.Add(d), seq: s.seq, kind: evTimerWake,
		proc: p, arg: seq})
}

// loop pops and executes events in the calling coroutine until control must
// move elsewhere. self is the process that just parked (nil when called from
// Run or a finished process). It returns true when self's own wake came up:
// the process carries on with no switch. It returns false when control must
// go back to Run, either to resume s.target or, with s.target nil, because
// the run is over (stopError says why). Timer wakes and process starts are
// dispatched from the event value itself; evAction calls the event's object.
func (s *Sim) loop(self *Proc) bool {
	for s.failure == nil {
		var ev event
		switch {
		case len(s.heap) > 0 && s.heap[0].at <= s.now:
			// Due events left over from before this instant's arrivals; they
			// carry smaller seqs than anything in the ready ring.
			ev = s.heapPop()
		case s.ready.n > 0:
			ev = s.ready.pop()
		case len(s.heap) > 0:
			next := s.heap[0].at
			if s.deadline != 0 && next > s.deadline {
				return false
			}
			s.now = next
			ev = s.heapPop()
		default:
			return false
		}
		s.EventCount++
		switch ev.kind {
		case evAction:
			ev.act.Fire(ev.arg)
		case evTimerWake, evTimerTimeout:
			p := ev.proc
			if p.parked && p.parkSeq == ev.arg {
				p.parked = false
				p.timedOut = ev.kind == evTimerTimeout
				if p == self {
					s.SelfWakes++
					return true
				}
				s.target = p
				s.Handoffs++
				return false
			}
		case evProcStart:
			p := ev.proc
			s.obsBus.Emit(obs.Event{T: int64(s.now), Kind: obs.EvProcStart,
				Rank: int32(p.id), Peer: -1, Name: p.name})
			s.target = p
			s.Handoffs++
			return false
		}
	}
	return false
}

// stopError says why the loop stopped: a recorded failure, an event past the
// deadline (all it ever leaves queued), a deadlock, or clean completion.
func (s *Sim) stopError() error {
	if s.failure != nil {
		return s.failure
	}
	if len(s.heap) > 0 {
		return fmt.Errorf("simnet: deadline %v exceeded: next event at t=%v", s.deadline, s.heap[0].at)
	}
	if s.live > 0 {
		var stuck []string
		for _, p := range s.procs {
			if !p.finished {
				stuck = append(stuck, p.name)
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("simnet: deadlock at t=%v: %d process(es) blocked with no pending events: %v",
			s.now, len(stuck), stuck)
	}
	return nil
}

// Run dispatches events until the queue is empty or a failure occurs.
// It returns an error if any process panicked, the deadline passed, or if
// processes remain blocked with no pending events (deadlock).
//
// Deadline semantics: the deadline error fires before executing any event
// scheduled after the deadline, and that event is left unconsumed; an event
// at exactly the deadline still runs. Queued events survive a returned Run
// (clear the deadline and call Run again); parked processes do not: they
// are unwound without running further, and their queued wakes are dropped.
func (s *Sim) Run() error {
	if s.running {
		return fmt.Errorf("simnet: Run called re-entrantly")
	}
	s.running = true
	defer func() {
		s.running = false
		for _, p := range s.procs {
			if p.next != nil && !p.finished {
				p.parked = false // drop its queued wakes
				p.stop()         // park panics unwound; start recovers it
			}
		}
	}()
	s.loop(nil) // whoever gives control back has set s.target or ended the run
	for s.target != nil {
		p := s.target
		s.target = nil
		if p.next == nil {
			p.start()
		}
		p.next()
	}
	return s.stopError()
}

// Procs returns all processes ever spawned, in spawn order.
func (s *Sim) Procs() []*Proc { return s.procs }
