package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refEvent mirrors what the seed implementation guaranteed: events fire in
// (at, seq) order, where seq is global scheduling order. The reference
// order is computed with a stable sort over timestamps, which is exactly
// FIFO-by-seq at equal timestamps.
type refEvent struct {
	at Time
	id int
}

// TestEventOrderGoldenFIFO schedules randomized (seeded) batches of events
// with heavy timestamp collisions — from before Run, from callbacks at the
// current instant, and from callbacks for the future — and asserts the
// firing order matches the reference: sort by timestamp, ties broken by
// scheduling order. This is the contract the heap rewrite must preserve
// across both the 4-ary heap and the same-instant ready ring.
func TestEventOrderGoldenFIFO(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := New(seed)
			var fired []int
			var ref []refEvent
			id := 0
			// Pre-Run batch: clustered timestamps over a small range.
			for i := 0; i < 200; i++ {
				at := Time(rng.Intn(17)) * 10
				me := id
				id++
				ref = append(ref, refEvent{at: at, id: me})
				s.At(at, func() { fired = append(fired, me) })
			}
			// In-flight batches: a fraction of events schedule follow-ups,
			// some at the current instant (ready-ring path), some ahead
			// (heap path). The reference must be built in the same order the
			// simulation schedules them, so follow-ups are generated from a
			// scripted second phase instead: one seeder event per decade
			// that schedules a same-instant and a future event.
			for d := 0; d < 10; d++ {
				at := Time(d) * 10
				sameID, futureID := id, id+1
				id += 2
				ref = append(ref, refEvent{at: at, id: -1}) // the seeder itself
				s.At(at, func() {
					fired = append(fired, -1)
					s.At(s.Now(), func() { fired = append(fired, sameID) })
					s.After(15, func() { fired = append(fired, futureID) })
				})
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			// Build the golden order with a reference scheduler: a queue of
			// (at, insertion order) pairs processed smallest-first with a
			// stable sort, replaying the same nested scheduling script.
			golden := goldenOrder(ref)
			if len(fired) != len(golden) {
				t.Fatalf("fired %d events, golden has %d", len(fired), len(golden))
			}
			for i := range golden {
				if fired[i] != golden[i] {
					t.Fatalf("order diverges at %d: got %d, want %d\nfired:  %v\ngolden: %v",
						i, fired[i], golden[i], fired, golden)
				}
			}
		})
	}
}

// goldenOrder replays the scheduling script of TestEventOrderGoldenFIFO on
// a reference scheduler: a plain slice, stable-sorted by timestamp (which
// preserves insertion order at equal timestamps — the seed implementation's
// (at, seq) contract). Seeder events (id == -1) insert a same-instant event
// and a +15 event at the moment they fire, exactly like the simulation.
func goldenOrder(ref []refEvent) []int {
	type qe struct {
		at  Time
		ins int
		id  int
		// seeders carry the ids their firing inserts
		sameID, futureID int
		seeder           bool
	}
	var q []qe
	ins := 0
	nextID := 0
	for _, r := range ref {
		if r.id >= 0 {
			nextID = r.id + 1
		}
	}
	// Reconstruct the id assignment: the test assigns sameID/futureID
	// sequentially after the pre-Run batch, one pair per seeder in order.
	seederPair := 0
	for _, r := range ref {
		e := qe{at: r.at, ins: ins, id: r.id}
		if r.id == -1 {
			e.seeder = true
			e.sameID = nextID + 2*seederPair
			e.futureID = nextID + 2*seederPair + 1
			seederPair++
		}
		q = append(q, e)
		ins++
	}
	var out []int
	for len(q) > 0 {
		sort.SliceStable(q, func(i, j int) bool {
			if q[i].at != q[j].at {
				return q[i].at < q[j].at
			}
			return q[i].ins < q[j].ins
		})
		e := q[0]
		q = q[1:]
		out = append(out, e.id)
		if e.seeder {
			q = append(q, qe{at: e.at, ins: ins, id: e.sameID})
			ins++
			q = append(q, qe{at: e.at + 15, ins: ins, id: e.futureID})
			ins++
		}
	}
	return out
}

// TestHeapFuzzAgainstReferenceSort drives heapPush/heapPop directly with
// randomized batches and asserts pops come out in exactly (at, seq) order —
// the reference being a plain sort of the same set.
func TestHeapFuzzAgainstReferenceSort(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		n := 1 + rng.Intn(500)
		var ref []event
		for i := 0; i < n; i++ {
			ev := event{at: Time(rng.Intn(50)), seq: uint64(i)}
			ref = append(ref, ev)
			s.heapPush(ev)
			// Interleave pops to exercise mixed push/pop sequences.
			if rng.Intn(4) == 0 && len(s.heap) > 0 {
				got := s.heapPop()
				// Remove the minimum from ref.
				mi := 0
				for j := range ref {
					if ref[j].before(&ref[mi]) {
						mi = j
					}
				}
				want := ref[mi]
				ref = append(ref[:mi], ref[mi+1:]...)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d: interleaved pop = (%d,%d), want (%d,%d)",
						seed, got.at, got.seq, want.at, want.seq)
				}
			}
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
		for i := range ref {
			got := s.heapPop()
			if got.at != ref[i].at || got.seq != ref[i].seq {
				t.Fatalf("seed %d: pop %d = (%d,%d), want (%d,%d)",
					seed, i, got.at, got.seq, ref[i].at, ref[i].seq)
			}
		}
		if len(s.heap) != 0 {
			t.Fatalf("seed %d: heap not drained", seed)
		}
	}
}
