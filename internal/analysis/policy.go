package analysis

// Policy is the one place the vet rules are configured and legitimate
// exceptions to them are declared. Every exception carries a justification
// string so it is visible in code review instead of hiding in a comment next
// to the code it excuses. Paths are module-relative ("internal/mpi"), so
// the same rule set applies to the real module and to the fixture modules
// under testdata/.
//
// A `subject` tag names what a table's keys (and, after "=", its string
// values) refer to in the module; the stale-policy sweep checks every tagged
// entry still exists. "-" marks tables with nothing to go stale against.
type Policy struct {
	// Layers maps module-relative package paths to their height in the
	// ARCHITECTURE.md DAG. A package may import another iff its layer is
	// strictly greater (examples/cmd → workloads → mpi → core → via →
	// fabric → simnet). Packages absent from the map fall back to the
	// leaf rules below.
	Layers map[string]int `subject:"package"`
	// TopLayer is the height of drivers (cmd/*, examples/*): they may
	// import anything.
	TopLayer int
	// SharedLeaves are importable from every layer but may themselves
	// import only the standard library and other shared leaves
	// (internal/obs and its capture codec; internal/sweep).
	SharedLeaves map[string]bool `subject:"package"`
	// RestrictedLeaves are importable only from the top layer and may
	// import no module package (internal/tcpvia: the real-socket twin;
	// internal/analysis: this tooling).
	RestrictedLeaves map[string]bool `subject:"package"`

	// WallClockBanned names the time-package functions that read or wait
	// on the host clock. Type and conversion uses (time.Duration) stay
	// legal everywhere.
	WallClockBanned map[string]bool `subject:"-"`
	// RandConstructors are the math/rand package-level functions that
	// build seeded generators; every other package-level rand function
	// draws from the process-global source and is banned. Methods on a
	// threaded *rand.Rand are always fine.
	RandConstructors map[string]bool `subject:"-"`

	// EventEdges names the interface types through which the scheduler fires
	// a device model's pre-allocated event objects (the value is the reason).
	// An event runs in device context at its own virtual time, not on the CPU
	// of whichever process was parked in the loop that popped it.
	EventEdges map[string]string `subject:"type"`

	// ExhaustiveStrict lists policy-qualified functions whose switches must
	// name every enum member even when they carry a default: the default is
	// a fallback ("unknown"), not a handler, so a new member reaching it is
	// silent data loss. The value is the reason.
	ExhaustiveStrict map[string]string `subject:"function"`

	// HotRoots names the entry points of the zero-allocation paths (the value
	// is why the root is hot). The hot set itself is derived: hotalloc checks
	// every body the call graph reaches from a root, or from an event a
	// Policy.EventEdges interface fires (testdata/hotset.golden is the list).
	// A root is a body nothing hot calls by name — an API entry point, or a
	// callback handed over as a function value.
	HotRoots map[string]string `subject:"function"`
	// ColdCalls are callees the hot walk does not enter and whose arguments
	// may box: they run on failure, or once per high-water mark. The
	// free-list growers need no entry — any function named grow* is cold.
	ColdCalls map[string]bool `subject:"function"`

	// Exceptions is the one table of reviewed exceptions: rule name →
	// excused subject → justification. What a subject is — a function, a
	// package, a constant — is the rule's Analyzer.Subject; every analyzer
	// consults the table through excused.
	Exceptions map[string]map[string]string `subject:"-"`
}

// excused reports whether the exceptions table excuses subject from rule.
func (p *Policy) excused(rule, subject string) bool {
	_, ok := p.Exceptions[rule][subject]
	return ok
}

// DefaultPolicy returns the policy for the viampi module — the encoded form
// of the ARCHITECTURE.md layering diagram plus the reviewed exception lists.
func DefaultPolicy() *Policy {
	return &Policy{
		Layers: map[string]int{
			"internal/simnet": 1,
			"internal/fabric": 2,
			"internal/via":    3,
			"internal/core":   4,
			"internal/mpi":    5,
			"internal/apps":   6,
			"internal/npb":    6,
			"internal/bench":  7,
		},
		TopLayer: 9,
		SharedLeaves: map[string]bool{
			// Passive observers: every simulation layer may stamp events on
			// the obs bus, and obs (the bus, the folds that turn the stream
			// into reports, the capture codec) may never reach back into
			// the simulation. Keeping them leaves guarantees
			// instrumentation can never alter what it observes.
			"internal/obs":         true,
			"internal/obs/capture": true,
			// The batch runner: every layer may fan hermetic jobs over it
			// (bench grids, the fault matrix, cmd drivers), and it imports
			// only the standard library, so the edge can never reach back
			// into the simulation.
			"internal/sweep": true,
		},
		RestrictedLeaves: map[string]bool{
			"internal/tcpvia":   true,
			"internal/analysis": true,
		},

		WallClockBanned: map[string]bool{
			"Now": true, "Since": true, "Until": true, "Sleep": true,
			"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
			"AfterFunc": true,
		},
		RandConstructors: map[string]bool{
			"New": true, "NewSource": true, "NewZipf": true,
		},

		EventEdges: map[string]string{
			"internal/simnet.Action": "Sim.loop fires frames, in-flight records and send completions through it",
		},

		ExhaustiveStrict: map[string]string{
			"internal/obs.(Kind).String":          "wire-stable export names: a kind falling to \"unknown\" silently corrupts every metrics key and trace label",
			"internal/obs.writeEvent":             "Perfetto mapper: an unmapped kind vanishes from the timeline without any error",
			"internal/obs.(Phase).String":         "phase table column names; a phase falling to the fallback breaks the report schema",
			"internal/via.(Status).String":        "descriptor status names appear in test failures and ErrBadState messages",
			"internal/via.(ViState).String":       "VI state names appear in test failures and ErrBadState messages",
			"internal/mpi.(SendMode).String":      "send mode names appear in profiles",
			"internal/mpi.(pktKind).String":       "packet kind names appear in protocol failure messages; a kind falling to pkt(N) hides which packet broke the run",
			"internal/mpi.(Rank).handlePacket":    "the packet dispatcher: its default fails the run on a byte that is no kind, so a kind with no arm would be a packet every receiver rejects",
			"internal/tcpvia.(ViState).String":    "real-socket twin mirrors via.ViState.String",
			"internal/obs/capture.(Clock).String": "clock-source names appear in bundle summaries and diff reports; a new source falling to \"unknown\" mislabels every report",
		},

		HotRoots: map[string]string{
			"internal/mpi.(Comm).Send":     "the message path, send side: every hop below it is a recycled object that is its own event, so a steady-state eager message allocates nothing (BenchmarkEagerRoundTrip)",
			"internal/mpi.(Comm).Recv":     "the message path, receive side, and through Wait the blocking-wait loop",
			"internal/mpi.(Comm).Isend":    "the user's nonblocking send: its request comes off the rank's free list and goes back from the wait that completes it, as a blocking call's does",
			"internal/mpi.(Comm).Irecv":    "the user's nonblocking receive, recycled as Isend's (NPB MG's halo: two of each, then Waitall)",
			"internal/mpi.(Rank).progress": "MPID_DeviceCheck, entered on every MPI call: an allocation under it scales with poll count, not traffic; the connection managers' Poll hangs off it",
			// Persistent communication: an iterative code restarts the same
			// templates every iteration (NPB SP's face exchange).
			"internal/mpi.(PersistentRequest).Start": "MPI_Start: an activation's request comes off the rank's free list, as Isend's and Irecv's do, so a restart allocates nothing",
			"internal/mpi.(Rank).WaitallPersistent":  "the wait that ends each round of Starts and gives every activation's request back: the handles go in the rank's one list, not a slice per call",
			// Blocking collectives: an iterative code runs the same ones every
			// iteration (NPB IS's histogram Allreduce, CG's and MG's norms). Their
			// temporaries live in the rank's scratch (collScratch), grown cold.
			"internal/mpi.(Comm).Barrier":      "recursive doubling on an 8-byte token: the paper's barrier (Table 2, Fig 4), entered in every timed region",
			"internal/mpi.(Comm).Allreduce":    "recursive doubling: tmp is the rank's scratch, not a buffer per call",
			"internal/mpi.(Comm).AllreduceI64": "in place: v is encoded into the scratch, reduced there and decoded back (NPB IS's 8 KB histogram, every iteration)",
			"internal/mpi.(Comm).AllreduceF64": "in place, as AllreduceI64: the residuals and norms of CG, MG, LU and FT",
			"internal/mpi.(Comm).Reduce":       "binomial tree: its accumulator and receive buffer are the scratch",
			"internal/mpi.(Comm).Bcast":        "binomial tree straight over the caller's buffer",
			"internal/mpi.(Comm).Allgather":    "recursive doubling over the caller's buffer, or Gather and Bcast on the rank's request list",
			"internal/mpi.(Comm).AllgatherI64": "encode and decode through the scratch (Comm.Split)",
			"internal/mpi.(Comm).Alltoall":     "uniform blocks are indexed, not built into count and displacement vectors per call",
			"internal/mpi.(Comm).Alltoallv":    "NPB IS's key exchange, every iteration: its requests wait in the rank's one list",
			// Bodies nothing calls by name: handed over as function values.
			"internal/via.(Port).handleFrame":       "fabric delivery callback, once per frame",
			"internal/mpi.(Rank).prepareChannel":    "the connection path's hook: what a channel builds comes off free lists, so a reconnect allocates nothing (BenchmarkReconnectCycle)",
			"internal/obs/capture.(Writer).Consume": "bundle encoder: runs once per bus event while recording; steady-state zero-alloc is the capture-overhead contract (append into the reused buffer, warm intern table)",
			"internal/obs/capture.(Ring).Consume":   "bounded flight-recorder store: runs once per bus event in live tcpvia capture",
			// Entry points below MPI that benchmark/'s ladder, ext-vibe and the
			// scheduler rail drive directly.
			"internal/via.(VI).PostRecv":   "one per message received on a VI that takes descriptors (the receive is re-posted)",
			"internal/via.(VI).RecvWait":   "the descriptor-form blocking receive",
			"internal/simnet.(Proc).Sleep": "timer-wake arm + park, the scheduler's hottest primitive (BenchmarkSimCore)",
			// The out-of-band bootstrap: every rank's Init and Finalize.
			"internal/via.(Port).SendOob": "a boot's messages: each rides a recycled frame, as a NIC post does, so a rank's bootstrap and finalize barrier allocate nothing per message",
			"internal/via.(Port).RecvOob": "hands each out-of-band frame back to the free list at the next call",
			// The batch runner's per-completion bookkeeping sits inside every
			// timed sweep (benchmark/'s figures_quick workload and its sweep.*
			// metrics); rendering, the fmt-heavy half, only runs when a progress
			// sink is attached.
			"internal/sweep.(tracker).advance": "a counter bump under an uncontended lock on every job completion; must add no GC pressure to the measurement",
		},
		ColdCalls: map[string]bool{
			"internal/simnet.(Sim).Failf":            true, // records a failure and kills the run
			"internal/mpi.(request).failf":           true, // fails the request
			"internal/via.(VI).badState":             true, // builds ErrBadState
			"internal/fabric.(Cluster).badEndpoints": true, // panics
			"internal/core.(base).reserve":           true, // a static manager's slabs, once at Init
			"internal/mpi.(Rank).reserve":            true,
			"internal/via.(Port).Reserve":            true,
			"internal/mpi.(Rank).rememberDest":       true, // grows once per peer, however often it reconnects
		},
		Exceptions: map[string]map[string]string{
			// Packages outside the simulated world: code there may use
			// wall-clock time, goroutines and locks (and iterate maps in any
			// order). Everything else is a simulation path where those
			// constructs break "a run is a pure function of its Config".
			"determinism": {
				"internal/tcpvia":   "real-socket twin of internal/via; wall-clock deadlines and goroutines are its job",
				"examples/tcpring":  "drives internal/tcpvia over real TCP; measures wall time by design",
				"internal/analysis": "static-analysis tooling; never on a simulation path",
				"cmd/viampi-vet":    "analysis driver; the -json timing line measures host load/analyze wall time and goes to stderr, never near a simulation path",
				"internal/sweep":    "the one sanctioned home for naked goroutines, sync primitives, and wall-clock reads outside simulated time: jobs are hermetic whole simulations, and the index-ordered merge erases completion order, so host scheduling never reaches an artifact",
			},
			// Sentinel constants (counts, limits) removed from a discovered
			// member set.
			"exhaustive": {
				"internal/obs.NumPhases": "count sentinel for array sizing, not a phase any exporter must handle",
			},
			// Hot bodies that allocate by design: each is small and named for
			// what it allocates, so excusing it whole leaves nothing else
			// unchecked. The walk still goes through it to what it calls.
			"hotalloc": {
				"internal/mpi.(profiler).enter": "with tracing on, a span's end is a closure over the profiler; a nil profiler (tracing off) returns the capture-free func, which is static (BenchmarkEagerRoundTrip reads 0 allocs/op through it)",
			},
		},
	}
}

// FixturePolicy derives a policy for a fixture module under testdata/: same
// rule set, no exceptions, so fixtures exercise the rules raw. Structural
// configuration (strict functions, hot roots) is kept: the
// fixture declares types and functions under the same module-relative names
// the real policy points at.
func FixturePolicy() *Policy {
	p := DefaultPolicy()
	p.Exceptions = nil
	return p
}
