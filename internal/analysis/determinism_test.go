package analysis

// The runtime half of the determinism story: the static analyzers forbid
// the constructs that could break "a run is a pure function of its Config";
// this harness observes the property itself, end to end. A representative
// matrix — every connection manager, an application kernel, two job sizes —
// runs twice with identical Configs, and the two runs must produce
// byte-identical trace digests: same messages, same sources, same
// destinations, same sizes, same virtual-time stamps, same per-rank
// resource statistics.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"viampi/internal/apps"
	"viampi/internal/mpi"
	"viampi/internal/obs"
	"viampi/internal/obs/capture"
	"viampi/internal/simnet"
	"viampi/internal/sweep"
	"viampi/internal/via"
)

// attachCapture wires a capture writer onto the run's bus so a divergence
// leaves behind two diffable bundles instead of just two hashes. It returns
// errors rather than failing a testing.T because it runs on sweep workers,
// where t.Fatalf is illegal.
func attachCapture(cfg *mpi.Config, label string, rounds, msgBytes int) (*capture.Writer, *bytes.Buffer, error) {
	var bundle bytes.Buffer
	cw, err := capture.NewWriter(&bundle, capture.Header{
		Clock:  capture.ClockVirtual,
		World:  cfg.Procs,
		Seed:   cfg.Seed,
		Device: cfg.Device,
		Policy: cfg.Policy,
		Label:  label,
		Config: fmt.Sprintf("procs=%d policy=%s seed=%d maxvis=%d rounds=%d msgBytes=%d",
			cfg.Procs, cfg.Policy, cfg.Seed, cfg.MaxVIs, rounds, msgBytes),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("capture writer: %w", err)
	}
	cw.Attach(cfg.Obs)
	return cw, &bundle, nil
}

// reportDivergence persists both runs' capture bundles outside the test's
// temp sandbox and logs the aligned diff — turning "the digests differ"
// into "the first divergent event is this one".
func reportDivergence(t *testing.T, first, second []byte) {
	t.Helper()
	dir, err := os.MkdirTemp("", "viampi-divergence-")
	if err != nil {
		t.Logf("cannot persist divergence bundles: %v", err)
		return
	}
	p1, p2 := filepath.Join(dir, "run1.bin"), filepath.Join(dir, "run2.bin")
	if err := os.WriteFile(p1, first, 0o644); err != nil {
		t.Logf("writing %s: %v", p1, err)
	}
	if err := os.WriteFile(p2, second, 0o644); err != nil {
		t.Logf("writing %s: %v", p2, err)
	}
	a, errA := capture.ReadBundle(bytes.NewReader(first))
	b, errB := capture.ReadBundle(bytes.NewReader(second))
	if errA != nil || errB != nil {
		t.Logf("bundles saved to %s (decode errors: %v / %v)", dir, errA, errB)
		return
	}
	var out bytes.Buffer
	if err := capture.Diff(a, b).WriteText(&out); err != nil {
		t.Logf("bundles saved to %s (diff render: %v)", dir, err)
		return
	}
	t.Logf("capture bundles saved to %s (inspect with viampi-replay)\n%s", dir, out.String())
}

// runDigestErr executes one replay of the CG communication pattern under
// cfg and folds everything observable about the run — the full timestamped
// event log plus per-rank statistics — into one hash. The returned bundle
// is the run's full capture, fed to reportDivergence when digests differ.
// It returns errors instead of taking a testing.T so dual runs can execute
// on concurrent sweep workers.
func runDigestErr(cfg mpi.Config, rounds, msgBytes int) (string, []byte, error) {
	hash, bundle, _, err := digestOf(cfg, "CG.replay", rounds, msgBytes, apps.ReplayMain(apps.CG(), rounds, msgBytes))
	return hash, bundle, err
}

// digestOf is runDigestErr for any program: main runs under cfg, captured
// under label, and the decoded bundle is returned beside its bytes.
func digestOf(cfg mpi.Config, label string, rounds, msgBytes int, main func(*mpi.Rank)) (string, []byte, *capture.Bundle, error) {
	cfg.Obs = obs.NewBus()
	cfg.Deadline = 30 * simnet.Second
	cw, bundle, err := attachCapture(&cfg, label, rounds, msgBytes)
	if err != nil {
		return "", nil, nil, err
	}
	w, err := mpi.Run(cfg, main)
	if err != nil {
		return "", nil, nil, fmt.Errorf("%s (%s, %d procs): %w", label, cfg.Policy, cfg.Procs, err)
	}
	if err := cw.Close(); err != nil {
		return "", nil, nil, fmt.Errorf("sealing capture bundle: %w", err)
	}

	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	put(int64(w.Elapsed))
	for _, rs := range w.Ranks {
		put(int64(rs.Rank), int64(rs.InitTime), int64(rs.AppTime),
			int64(rs.VisCreated), int64(rs.VisUsed), int64(rs.DistinctDests),
			rs.PinnedPeak, rs.MsgsSent, rs.BytesSent, rs.WaitWakeups,
			int64(rs.ComputeTime))
	}
	b, err := capture.ReadBundle(bytes.NewReader(bundle.Bytes()))
	if err != nil {
		return "", nil, nil, fmt.Errorf("decoding capture bundle: %w", err)
	}
	sends := 0
	for _, ev := range b.Events {
		if ev.Kind == obs.EvMsgSend {
			put(ev.T, int64(ev.Rank), int64(ev.Peer), ev.A, ev.B)
			sends++
		}
	}
	if sends == 0 {
		return "", nil, nil, fmt.Errorf("%s (%s, %d procs) recorded no message sends; the digest would be vacuous", label, cfg.Policy, cfg.Procs)
	}
	return hex.EncodeToString(h.Sum(nil)), bundle.Bytes(), b, nil
}

// runDigest is the sequential single-run wrapper kept for the digest-moves
// sanity test.
func runDigest(t *testing.T, cfg mpi.Config, rounds, msgBytes int) (string, []byte) {
	t.Helper()
	hash, bundle, err := runDigestErr(cfg, rounds, msgBytes)
	if err != nil {
		t.Fatal(err)
	}
	return hash, bundle
}

// checkDigestGolden compares a case's digest, and the SHA-256 of its whole
// capture bundle (every event: kind, rank, peer, arguments, timestamp), with
// the case's line in testdata/digests.golden. The file holds one
// "<test name> <digest> <bundle sha256>" line per dual-run case, sorted;
// -update rewrites the line of every case that runs.
func checkDigestGolden(t *testing.T, digest string, bundle []byte) {
	t.Helper()
	sum := sha256.Sum256(bundle)
	line := fmt.Sprintf("%s %s %s", t.Name(), digest, hex.EncodeToString(sum[:]))
	path := filepath.Join("testdata", "digests.golden")
	data, err := os.ReadFile(path)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	golden := map[string]string{} // test name → its line
	for _, l := range strings.Split(string(data), "\n") {
		if name, _, ok := strings.Cut(l, " "); ok {
			golden[name] = l
		}
	}
	if golden[t.Name()] == line {
		return
	}
	if !*updateGolden {
		t.Fatalf("run digest drifted from %s — this Config no longer produces the event stream or per-rank statistics it did at the last commit:\n  got  %q\n  want %q\nreview the change, then regenerate with `make golden`", path, line, golden[t.Name()])
	}
	golden[t.Name()] = line
	lines := make([]string, 0, len(golden))
	for _, l := range golden {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// dualDigest runs two same-Config replays side by side on the batch
// runner's workers — the dual-run determinism check and a live test that
// concurrent simulations stay isolated — and fails the test on divergence
// between the runs or from the committed golden. mkCfg builds a fresh Config
// per run so per-run state (fault plans, buses) is never shared.
func dualDigest(t *testing.T, mkCfg func() mpi.Config, rounds, msgBytes int,
	digest func(cfg mpi.Config, rounds, msgBytes int) (string, []byte, error)) {
	t.Helper()
	type run struct {
		hash   string
		bundle []byte
	}
	jobs := make([]sweep.Job[run], 2)
	for i := range jobs {
		jobs[i] = sweep.Job[run]{
			ID: fmt.Sprintf("run%d", i+1),
			Run: func() (run, error) {
				h, b, err := digest(mkCfg(), rounds, msgBytes)
				return run{h, b}, err
			},
		}
	}
	res, err := sweep.Values(sweep.Run(sweep.Options{Workers: 2}, jobs))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].hash != res[1].hash {
		reportDivergence(t, res[0].bundle, res[1].bundle)
		t.Fatalf("two runs with identical Configs diverged:\n  run 1: %s\n  run 2: %s", res[0].hash, res[1].hash)
	}
	checkDigestGolden(t, res[0].hash, res[0].bundle)
}

// TestDualRunDeterminism asserts byte-identical digests for every
// connection manager at two job sizes.
func TestDualRunDeterminism(t *testing.T) {
	const rounds, msgBytes = 2, 1024
	for _, policy := range []string{"static-cs", "static-p2p", "ondemand"} {
		for _, procs := range []int{8, 16} {
			name := fmt.Sprintf("%s/p%d", policy, procs)
			policy, procs := policy, procs
			t.Run(name, func(t *testing.T) {
				dualDigest(t, func() mpi.Config {
					return mpi.Config{Procs: procs, Policy: policy, Seed: 42}
				}, rounds, msgBytes, runDigestErr)
			})
		}
	}
}

// TestDualRunDeterminismLargeWorld extends the dual-run property past the
// seed sizes into sparse-representation territory: at 96 ranks every rank's
// channel table, sequence counters, and manager state live in the sparse
// maps/sorted scan lists, so this pins that the lazy layout introduces no
// iteration-order or allocation-order nondeterminism. The static-p2p case
// tunes credits and the eager threshold down so the dense mesh's pinned
// pools stay small; on-demand runs with defaults.
func TestDualRunDeterminismLargeWorld(t *testing.T) {
	const rounds, msgBytes = 2, 256
	for _, cfg := range []mpi.Config{
		{Procs: 96, Policy: "ondemand", Seed: 42},
		{Procs: 96, Policy: "static-p2p", Seed: 42, CreditCount: 4, EagerThreshold: 64},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%s/p%d", cfg.Policy, cfg.Procs), func(t *testing.T) {
			dualDigest(t, func() mpi.Config { return cfg }, rounds, msgBytes, runDigestErr)
		})
	}
}

// TestEvictionDualRunDeterminism extends the dual-run property to capped
// on-demand runs: with MaxVIs below the number of peers a rank has live at
// once, the eviction/reconnect machinery fires constantly, and its victim
// selection, BYE handshakes, and parked-send replays must all be pure
// functions of the Config. The CG replay (p8, p16) never does that: its ranks
// post every receive and send of a round before waiting, so all their
// channels are requested before one is up to evict, the cap being soft — no
// MaxVIs makes it evict, and its two digests equal the uncapped on-demand
// ones, pinning only that a cap that does not bind changes nothing. The shift
// cases run a program whose cap binds, and refuse a run that evicted nothing.
func TestEvictionDualRunDeterminism(t *testing.T) {
	const rounds, msgBytes = 2, 1024
	for _, tc := range []struct {
		name          string
		procs, maxVIs int
		digest        func(cfg mpi.Config, rounds, msgBytes int) (string, []byte, error)
	}{
		{"p8", 8, 3, runDigestErr},
		{"p16", 16, 3, runDigestErr},
		{"shift-p8-cap1", 8, 1, shiftDigest},
		{"shift-p8-cap3", 8, 3, shiftDigest},
		{"shift-p16-cap1", 16, 1, shiftDigest},
		{"shift-p16-cap3", 16, 3, shiftDigest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dualDigest(t, func() mpi.Config {
				return mpi.Config{Procs: tc.procs, Policy: "ondemand", MaxVIs: tc.maxVIs, Seed: 42}
			}, rounds, msgBytes, tc.digest)
		})
	}
}

// shiftDigest digests a program that a VI cap below two binds on at every
// step: for each distance in turn, rounds blocking exchanges with the ranks
// that far ahead and behind (benchmark/'s evict_churn, in order), so that the
// channels of the last distance are idle, up and evictable when the next one
// connects. A run that evicted nothing is refused: it would pin nothing about
// eviction.
func shiftDigest(cfg mpi.Config, rounds, msgBytes int) (string, []byte, error) {
	n := cfg.Procs
	hash, bundle, b, err := digestOf(cfg, "shift", rounds, msgBytes, func(r *mpi.Rank) {
		c := r.World()
		in, out := make([]byte, msgBytes), make([]byte, msgBytes)
		for d := 1; d < n; d++ {
			for i := 0; i < rounds; i++ {
				if _, err := c.Sendrecv((r.Rank()+d)%n, d, out, (r.Rank()-d+n)%n, d, in); err != nil {
					r.Abort(1, err.Error())
				}
			}
		}
	})
	if err != nil {
		return "", nil, err
	}
	evictions := 0
	for _, ev := range b.Events {
		if ev.Kind == obs.EvEvict {
			evictions++
		}
	}
	if evictions == 0 {
		return "", nil, fmt.Errorf("shift (%d procs, MaxVIs=%d) evicted nothing: the cap does not bind", n, cfg.MaxVIs)
	}
	return hash, bundle, nil
}

// TestFaultDualRunDeterminism pins the fault injector's hash-seeded design:
// dropped, refused, and delayed connection requests — and every retry and
// backoff they trigger — must replay identically for the same Config.
func TestFaultDualRunDeterminism(t *testing.T) {
	const rounds, msgBytes = 2, 1024
	plan := func() *via.FaultPlan {
		return &via.FaultPlan{DropConnReq: 0.25, RefuseConnReq: 0.25,
			DelayConnReq: 0.5, ConnReqDelay: 300 * simnet.Microsecond}
	}
	for _, policy := range []string{"static-cs", "static-p2p", "ondemand"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			// Each run builds its own fault plan: plans carry per-run state.
			dualDigest(t, func() mpi.Config {
				return mpi.Config{Procs: 8, Policy: policy, Seed: 42, Faults: plan()}
			}, rounds, msgBytes, runDigestErr)
		})
	}
}

// obsDigest runs the CG replay with the full observability stack attached
// (flight recorder + metrics collector on one bus) and hashes the rendered
// artifacts — the Perfetto trace JSON and the metrics JSON must themselves
// be byte-identical across same-Config runs, not merely the raw events.
func obsDigest(cfg mpi.Config, rounds, msgBytes int) (string, []byte, error) {
	bus := obs.NewBus()
	rec := obs.NewRecorder()
	rec.Attach(bus)
	reg := obs.NewRegistry()
	obs.NewCollector(reg).Attach(bus)
	cfg.Obs = bus
	cfg.Deadline = 30 * simnet.Second
	cw, bundle, err := attachCapture(&cfg, "CG.replay", rounds, msgBytes)
	if err != nil {
		return "", nil, err
	}
	if _, err := apps.Replay(apps.CG(), cfg, rounds, msgBytes); err != nil {
		return "", nil, fmt.Errorf("replay (%s, %d procs): %w", cfg.Policy, cfg.Procs, err)
	}
	if err := cw.Close(); err != nil {
		return "", nil, fmt.Errorf("sealing capture bundle: %w", err)
	}
	if rec.Len() == 0 {
		return "", nil, fmt.Errorf("observability run recorded no events; the digest would be vacuous")
	}
	var tr, mt bytes.Buffer
	if err := rec.WritePerfetto(&tr); err != nil {
		return "", nil, err
	}
	reg.WriteJSON(&mt)
	h := sha256.New()
	h.Write(tr.Bytes())
	h.Write(mt.Bytes())
	return hex.EncodeToString(h.Sum(nil)), bundle.Bytes(), nil
}

// TestObsDualRunDeterminism asserts the exported observability artifacts
// are byte-stable: two runs with identical Configs must render identical
// Perfetto traces and metrics dumps.
func TestObsDualRunDeterminism(t *testing.T) {
	const rounds, msgBytes = 2, 1024
	for _, policy := range []string{"static-p2p", "ondemand"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			dualDigest(t, func() mpi.Config {
				return mpi.Config{Procs: 8, Policy: policy, Seed: 42}
			}, rounds, msgBytes, obsDigest)
		})
	}
}

// TestDigestTracksTheConfig is the harness's own sanity check: change any
// Config knob (seed, policy, size) and the digest must move — otherwise
// the dual-run comparison above could pass vacuously by hashing nothing
// that matters.
func TestDigestTracksTheConfig(t *testing.T) {
	const rounds, msgBytes = 2, 1024
	base, _ := runDigest(t, mpi.Config{Procs: 8, Policy: "ondemand", Seed: 42}, rounds, msgBytes)
	if got, _ := runDigest(t, mpi.Config{Procs: 8, Policy: "static-cs", Seed: 42}, rounds, msgBytes); got == base {
		t.Error("digest identical across connection managers; trace is not capturing connection traffic timing")
	}
	if got, _ := runDigest(t, mpi.Config{Procs: 16, Policy: "ondemand", Seed: 42}, rounds, msgBytes); got == base {
		t.Error("digest identical across job sizes")
	}
	if got, _ := runDigest(t, mpi.Config{Procs: 8, Policy: "ondemand", Seed: 42}, rounds, 2*msgBytes); got == base {
		t.Error("digest identical across message sizes")
	}
}
