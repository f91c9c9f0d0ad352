package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"viampi/internal/simnet"
	"viampi/internal/via"
)

// i64Bytes encodes v into a fresh buffer, as a checksum folds it.
func i64Bytes(v []int64) []byte {
	b := make([]byte, 8*len(v))
	putI64s(b, v)
	return b
}

// randProgram generates a deterministic, valid MPI program from a seed: a
// sequence of steps where every rank participates in a randomly chosen
// collective, a randomly matched point-to-point round, or local compute.
// Every rank folds everything it observes into a checksum; the program is
// valid by construction (sends and receives are paired by the generator).
//
// Running the same seed under every connection policy and device and
// demanding identical checksums is the strongest whole-stack equivalence
// test in the suite: connection management must be semantically invisible.
func randProgram(seed int64, n int) func(r *Rank) []byte {
	type step struct {
		kind  int // 0: collective, 1: pt2pt round, 2: compute
		op    int
		pairs [][2]int // pt2pt: disjoint (src, dst) pairs
		size  int
		tag   int
	}
	rng := rand.New(rand.NewSource(seed))
	var steps []step
	nsteps := 6 + rng.Intn(6)
	for s := 0; s < nsteps; s++ {
		switch rng.Intn(3) {
		case 0:
			steps = append(steps, step{kind: 0, op: rng.Intn(5), size: 8 << rng.Intn(4)})
		case 1:
			perm := rng.Perm(n)
			var pairs [][2]int
			for i := 0; i+1 < len(perm); i += 2 {
				pairs = append(pairs, [2]int{perm[i], perm[i+1]})
			}
			steps = append(steps, step{kind: 1, pairs: pairs,
				size: 1 + rng.Intn(9000), tag: rng.Intn(8)})
		default:
			steps = append(steps, step{kind: 2})
		}
	}

	return func(r *Rank) []byte {
		c := r.World()
		me := c.Rank()
		sum := []byte{byte(me)}
		fold := func(b []byte) {
			h := byte(0)
			for _, x := range b {
				h = h*31 + x
			}
			sum = append(sum, h)
		}
		for si, st := range steps {
			switch st.kind {
			case 0:
				switch st.op {
				case 0:
					if err := c.Barrier(); err != nil {
						r.Proc().Sim().Failf("barrier: %v", err)
						return nil
					}
				case 1:
					out := []int64{int64(me + si)}
					if err := c.AllreduceI64(out, SumI64); err != nil {
						r.Proc().Sim().Failf("allreduce: %v", err)
						return nil
					}
					fold(i64Bytes(out))
				case 2:
					buf := make([]byte, st.size)
					if me == si%c.Size() {
						for i := range buf {
							buf[i] = byte(i + si)
						}
					}
					if err := c.Bcast(buf, si%c.Size()); err != nil {
						r.Proc().Sim().Failf("bcast: %v", err)
						return nil
					}
					fold(buf)
				case 3:
					all := make([]byte, st.size*c.Size())
					mine := bytes.Repeat([]byte{byte(me + si)}, st.size)
					if err := c.Allgather(mine, all); err != nil {
						r.Proc().Sim().Failf("allgather: %v", err)
						return nil
					}
					fold(all)
				default:
					nb := c.Size() * 16
					sendb := make([]byte, nb)
					recvb := make([]byte, nb)
					for i := range sendb {
						sendb[i] = byte(me * (si + 2))
					}
					if err := c.Alltoall(sendb, recvb, 16); err != nil {
						r.Proc().Sim().Failf("alltoall: %v", err)
						return nil
					}
					fold(recvb)
				}
			case 1:
				for _, pr := range st.pairs {
					if pr[0] == me {
						msg := bytes.Repeat([]byte{byte(pr[0]*7 + si)}, st.size)
						if err := c.Send(pr[1], st.tag, msg); err != nil {
							r.Proc().Sim().Failf("send: %v", err)
							return nil
						}
					}
					if pr[1] == me {
						in := make([]byte, st.size+8)
						stt, err := c.Recv(in, pr[0], st.tag)
						if err != nil {
							r.Proc().Sim().Failf("recv: %v", err)
							return nil
						}
						fold(in[:stt.Count])
					}
				}
			default:
				r.Compute(float64(me+1) * 3e-6)
			}
		}
		return sum
	}
}

// randomWorlds runs one random program on six ranks under every policy, VI
// caps that force evictions and reconnects, dropped and refused connection
// requests, and static or growing pools — thirty worlds — requires the same
// per-rank checksums of all of them, and hands each finished world to check.
func randomWorlds(t *testing.T, check func(name string, w *World)) {
	const n = 6
	plans := map[string]func() *via.FaultPlan{
		"none":   func() *via.FaultPlan { return nil },
		"drop":   func() *via.FaultPlan { return &via.FaultPlan{DropConnReq: 0.3} },
		"refuse": func() *via.FaultPlan { return &via.FaultPlan{RefuseConnReq: 0.3} },
	}
	prog := randProgram(3, n)
	var ref [][]byte
	for _, pol := range []string{"static-p2p", "static-cs", "ondemand"} {
		for _, maxVIs := range []int{0, 1, 2} {
			if maxVIs > 0 && pol != "ondemand" {
				continue // a cap needs a policy that can reconnect
			}
			for _, faults := range []string{"none", "drop", "refuse"} {
				for _, dynamic := range []bool{false, true} {
					name := fmt.Sprintf("%s/MaxVIs=%d/%s/dynamic=%v", pol, maxVIs, faults, dynamic)
					results := make([][]byte, n)
					cfg := Config{Procs: n, Policy: pol, MaxVIs: maxVIs, Faults: plans[faults](),
						DynamicCredits: dynamic, Seed: 3, Deadline: 120 * simnet.Second}
					w, err := Run(cfg, func(r *Rank) { results[r.Rank()] = prog(r) })
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if ref == nil {
						ref = results
					}
					for rk := range results {
						if !bytes.Equal(ref[rk], results[rk]) {
							t.Fatalf("%s: rank %d's checksum differs from the first run's", name, rk)
						}
					}
					check(name, w)
				}
			}
		}
	}
}

// TestRandomProgramPolicyEquivalence runs several random programs under
// every policy and device and requires bit-identical per-rank checksums.
func TestRandomProgramPolicyEquivalence(t *testing.T) {
	const n = 6
	for seed := int64(1); seed <= 4; seed++ {
		prog := randProgram(seed, n)
		var ref [][]byte
		var refName string
		for _, dev := range []string{"clan", "bvia"} {
			for _, pol := range []string{"static-cs", "static-p2p", "ondemand"} {
				results := make([][]byte, n)
				cfg := Config{Procs: n, Device: dev, Policy: pol,
					Deadline: 120 * simnet.Second, Seed: seed}
				if _, err := Run(cfg, func(r *Rank) {
					results[r.Rank()] = prog(r)
				}); err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, dev, pol, err)
				}
				name := fmt.Sprintf("%s/%s", dev, pol)
				if ref == nil {
					ref, refName = results, name
					continue
				}
				for rk := range results {
					if !bytes.Equal(ref[rk], results[rk]) {
						t.Fatalf("seed %d: rank %d differs between %s and %s:\n%v\n%v",
							seed, rk, refName, name, ref[rk], results[rk])
					}
				}
			}
		}
	}
}

// TestRandomProgramDynamicCreditsEquivalence repeats the check with dynamic
// flow control enabled.
func TestRandomProgramDynamicCreditsEquivalence(t *testing.T) {
	const n = 5
	prog := randProgram(99, n)
	run := func(dyn bool) [][]byte {
		results := make([][]byte, n)
		cfg := Config{Procs: n, Deadline: 120 * simnet.Second, DynamicCredits: dyn}
		if _, err := Run(cfg, func(r *Rank) { results[r.Rank()] = prog(r) }); err != nil {
			t.Fatal(err)
		}
		return results
	}
	a, b := run(false), run(true)
	for rk := range a {
		if !bytes.Equal(a[rk], b[rk]) {
			t.Fatalf("rank %d differs with dynamic credits", rk)
		}
	}
}
