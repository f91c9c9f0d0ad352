package analysis

// fsmcheck_test.go model-checks the two distributed protocols the connection
// manager implements, as small 2-peer product automata explored exhaustively
// by BFS. The per-peer machines are abstractions of the extracted ViState
// FSM (TestModelEdgesExistInTheCode asserts the transitions they rely on
// exist in the code); the in-flight messages are single-bit flags (establishment) or
// short FIFO queues (eviction), and the fault plan's drop/refuse behaviors
// are nondeterministic moves gated by a monotone fault switch — faults can
// stop happening, never start, which is exactly the "eventually the network
// behaves" fairness the liveness assertions need.
//
// Both checkers return a list of human-readable failures; empty = proved.

import (
	"fmt"
	"sort"
)

// ---------------------------------------------------------------------------
// Connection-establishment model

// Per-side establishment states.
const (
	cmIdle uint8 = iota
	cmConnecting
	cmConnected
)

// connState is one product state: two peer states, six single-bit in-flight
// message flags, and the fault switch.
type connState struct {
	s     [2]uint8
	req   [2]bool // req[i]: ConnReq from i to 1-i in flight
	ack   [2]bool // ack[i]: ConnAck from i to 1-i in flight
	nack  [2]bool // nack[i]: ConnNack from i to 1-i in flight
	fault bool
}

func (st connState) String() string {
	name := func(s uint8) string {
		return [...]string{"Idle", "Connecting", "Connected"}[s]
	}
	msgs := ""
	for i := 0; i < 2; i++ {
		if st.req[i] {
			msgs += fmt.Sprintf(" req%d%d", i, 1-i)
		}
		if st.ack[i] {
			msgs += fmt.Sprintf(" ack%d%d", i, 1-i)
		}
		if st.nack[i] {
			msgs += fmt.Sprintf(" nack%d%d", i, 1-i)
		}
	}
	if msgs == "" {
		msgs = " (no messages)"
	}
	return fmt.Sprintf("peer0=%s peer1=%s%s fault=%v", name(st.s[0]), name(st.s[1]), msgs, st.fault)
}

func (st connState) goal() bool {
	return st.s[0] == cmConnected && st.s[1] == cmConnected
}

// connMoves returns the successor states in deterministic order. With
// st.fault set, ConnReq delivery additionally offers the fault-plan
// behaviors (drop, refuse-with-NACK) plus the fault-off switch.
func connMoves(st connState, adoption bool) []connState {
	var out []connState
	for i := 0; i < 2; i++ {
		j := 1 - i

		// issue: an Idle peer opens the handshake (on-demand connect).
		if st.s[i] == cmIdle && !st.req[i] {
			n := st
			n.s[i] = cmConnecting
			n.req[i] = true
			out = append(out, n)
		}

		// deliver ConnReq from i at j.
		if st.req[i] {
			if st.fault {
				// drop: the request is lost in flight.
				n := st
				n.req[i] = false
				out = append(out, n)
				// refuse: j's manager rejects; the NACK goes back to the
				// initiator i — refusal resets i, never j.
				n = st
				n.req[i] = false
				n.nack[j] = true
				out = append(out, n)
			}
			n := st
			n.req[i] = false
			switch st.s[j] {
			case cmIdle:
				// passive accept
				n.s[j] = cmConnected
				n.ack[j] = true
			case cmConnecting:
				if adoption {
					// crossing-request adoption (the PR 3 rule): the peer
					// already trying to connect treats the incoming request
					// as the match.
					n.s[j] = cmConnected
					n.ack[j] = true
				} else {
					// without adoption a busy peer refuses the crossing
					// request — NACK back to the initiator.
					n.nack[j] = true
				}
			case cmConnected:
				// duplicate/late request on an established pair: re-ack, so
				// an initiator whose first ack was lost can still finish.
				n.ack[j] = true
			}
			out = append(out, n)
		}

		// deliver ConnAck from i at j.
		if st.ack[i] {
			n := st
			n.ack[i] = false
			if n.s[j] == cmConnecting {
				n.s[j] = cmConnected
			}
			out = append(out, n)
		}

		// deliver ConnNack from i at j.
		if st.nack[i] {
			n := st
			n.nack[i] = false
			if n.s[j] == cmConnecting {
				n.s[j] = cmIdle
			}
			out = append(out, n)
		}

		// timeout-retry: a Connecting peer with nothing in flight in either
		// direction of its handshake gives up and resets.
		if st.s[i] == cmConnecting && !st.req[i] && !st.ack[j] && !st.nack[j] {
			n := st
			n.s[i] = cmIdle
			out = append(out, n)
		}
	}
	// The fault plan is finite: faults may stop at any point, and never
	// restart (monotone switch — the fairness the liveness checks rest on).
	if st.fault {
		n := st
		n.fault = false
		out = append(out, n)
	}
	return out
}

// CheckConnectionModel exhaustively explores the 2-peer establishment
// automaton under message drop/refusal/reordering and returns the list of
// contract violations (empty = proved):
//
//   - deadlock freedom: every stuck state is the goal (both Connected);
//   - liveness: from every reachable state, once faults stop, the goal is
//     reachable;
//   - livelock freedom: with faults off, no reachable cycle avoids the goal.
//
// With adoption=false the crossing-NACK livelock is expected: both peers
// issue, each refuses the other's crossing request, both reset, repeat.
func CheckConnectionModel(adoption bool) []string {
	var fails []string

	// Forward BFS over the full graph (faults start on).
	start := connState{fault: true}
	reach := map[connState]bool{start: true}
	frontier := []connState{start}
	for len(frontier) > 0 {
		st := frontier[0]
		frontier = frontier[1:]
		succs := connMoves(st, adoption)
		if len(succs) == 0 && !st.goal() {
			fails = append(fails, "deadlock in non-goal state: "+st.String())
		}
		for _, n := range succs {
			if !reach[n] {
				reach[n] = true
				frontier = append(frontier, n)
			}
		}
	}

	// canReachGoal over the fault-off graph, by reverse saturation: seed
	// with goal states, repeatedly add any fault-off state with a successor
	// already in the set.
	var offStates []connState
	for st := range reach {
		st.fault = false
		if !containsState(offStates, st) {
			offStates = append(offStates, st)
		}
	}
	sortStates(offStates)
	canReach := map[connState]bool{}
	for _, st := range offStates {
		if st.goal() {
			canReach[st] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, st := range offStates {
			if canReach[st] {
				continue
			}
			for _, n := range connMoves(st, adoption) {
				if canReach[n] {
					canReach[st] = true
					changed = true
					break
				}
			}
		}
	}
	reported := 0
	for _, st := range offStates {
		if !canReach[st] && reported < 3 {
			fails = append(fails, "goal unreachable after faults stop, from: "+st.String())
			reported++
		}
	}

	// Livelock: a cycle among non-goal states in the fault-off graph.
	// Iterative three-color DFS in deterministic order.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[connState]int{}
	var cycleAt *connState
	var dfs func(st connState)
	dfs = func(st connState) {
		color[st] = gray
		for _, n := range connMoves(st, adoption) {
			if n.goal() {
				continue
			}
			switch color[n] {
			case white:
				dfs(n)
			case gray:
				if cycleAt == nil {
					c := n
					cycleAt = &c
				}
			}
		}
		color[st] = black
	}
	for _, st := range offStates {
		if !st.goal() && color[st] == white {
			dfs(st)
		}
	}
	if cycleAt != nil {
		fails = append(fails, "livelock: non-goal cycle with faults off, through: "+cycleAt.String())
	}
	return fails
}

func containsState(list []connState, st connState) bool {
	for _, s := range list {
		if s == st {
			return true
		}
	}
	return false
}

func sortStates(list []connState) {
	sort.Slice(list, func(a, b int) bool { return list[a].String() < list[b].String() })
}

// ---------------------------------------------------------------------------
// BYE / eviction-quiescence model

// Per-side eviction modes.
const (
	byUp       uint8 = iota
	byEvicting       // sent BYE, waiting for ACK/NACK/crossing BYE
	byDraining       // acked the peer's BYE, waiting for DISC
	byGone           // channel torn down; held packets replayed on a fresh channel
)

// Wire messages of the eviction handshake.
const (
	msgBye  = 'B'
	msgAck  = 'A'
	msgNack = 'N'
	msgDisc = 'D'
)

// byeState is one product state: per-side mode, per-side held-packet flag
// (pendingClose non-empty), and a FIFO queue per direction. Strings keep the
// struct comparable, so it is its own map key.
type byeState struct {
	m [2]uint8
	h [2]bool
	q [2]string // q[i]: messages in flight from i to 1-i, head first
}

func (st byeState) String() string {
	name := func(m uint8) string {
		return [...]string{"Up", "Evicting", "Draining", "Gone"}[m]
	}
	return fmt.Sprintf("peer0=%s held=%v q01=%q peer1=%s held=%v q10=%q",
		name(st.m[0]), st.h[0], st.q[0], name(st.m[1]), st.h[1], st.q[1])
}

const byeQueueCap = 4

// byeMoves returns successor states in deterministic order. Restricted mode
// drops the environment moves (start-evict, user-send), leaving only message
// deliveries — the graph quiescence termination is checked on.
func byeMoves(st byeState, restricted bool, overflow *bool) []byeState {
	var out []byeState
	enq := func(s *byeState, from int, msg byte) {
		if len(s.q[from]) >= byeQueueCap {
			*overflow = true
			return
		}
		s.q[from] += string(msg)
	}
	for i := 0; i < 2; i++ {
		j := 1 - i

		if !restricted {
			// start-evict: the idle-victim scan picks channel i→j.
			if st.m[i] == byUp {
				n := st
				n.m[i] = byEvicting
				enq(&n, i, msgBye)
				out = append(out, n)
			}
			// user-send during teardown: the packet is held in pendingClose
			// instead of being posted on the dying VI.
			if (st.m[i] == byEvicting || st.m[i] == byDraining) && !st.h[i] {
				n := st
				n.h[i] = true
				out = append(out, n)
			}
		}

		// deliver the head of queue i→j at j.
		if len(st.q[i]) == 0 {
			continue
		}
		msg := st.q[i][0]
		base := st
		base.q[i] = base.q[i][1:]
		switch msg {
		case msgBye:
			switch st.m[j] {
			case byUp:
				// quiescent: accept the eviction and drain.
				n := base
				n.m[j] = byDraining
				enq(&n, j, msgAck)
				out = append(out, n)
				// busy: refuse; the evictor backs off and replays holds.
				n = base
				enq(&n, j, msgNack)
				out = append(out, n)
			case byEvicting:
				// crossing BYEs: both sides are evicting the same channel;
				// the BYE itself is the acknowledgement.
				n := base
				n.m[j] = byGone
				n.h[j] = false // holds replayed on the fresh channel
				enq(&n, j, msgDisc)
				out = append(out, n)
			default: // Draining, Gone: stale BYE on a dying channel
				out = append(out, base)
			}
		case msgAck:
			n := base
			if st.m[j] == byEvicting {
				n.m[j] = byGone
				n.h[j] = false
				enq(&n, j, msgDisc)
			}
			out = append(out, n)
		case msgNack:
			n := base
			if st.m[j] == byEvicting {
				n.m[j] = byUp
				n.h[j] = false // holds replayed on the still-live channel
			}
			out = append(out, n)
		case msgDisc:
			n := base
			if st.m[j] == byDraining {
				n.m[j] = byGone
				n.h[j] = false
			}
			out = append(out, n)
		}
	}
	return out
}

// CheckByeModel exhaustively explores the eviction-handshake automaton and
// returns the contract violations (empty = proved):
//
//   - no stuck pendingClose: in every reachable state with no messages in
//     flight, both sides are Up or Gone and no packet is still held;
//   - quiescence terminates: delivery alone (no new evictions or sends)
//     always drains to such a legal quiescent state;
//   - holds are bounded to teardown: a held packet implies the holder is
//     mid-eviction (Evicting or Draining).
func CheckByeModel() []string {
	var fails []string
	overflow := false

	start := byeState{}
	reach := map[byeState]bool{start: true}
	frontier := []byeState{start}
	var all []byeState
	for len(frontier) > 0 {
		st := frontier[0]
		frontier = frontier[1:]
		all = append(all, st)
		for _, n := range byeMoves(st, false, &overflow) {
			if !reach[n] {
				reach[n] = true
				frontier = append(frontier, n)
			}
		}
	}
	if overflow {
		fails = append(fails, fmt.Sprintf("message queue exceeded %d entries: the handshake generates unbounded traffic", byeQueueCap))
	}

	quiesced := 0
	heldBad := 0
	for _, st := range all {
		if st.h[0] && st.m[0] != byEvicting && st.m[0] != byDraining ||
			st.h[1] && st.m[1] != byEvicting && st.m[1] != byDraining {
			if heldBad < 3 {
				fails = append(fails, "held packet outside teardown: "+st.String())
			}
			heldBad++
		}
		if len(st.q[0]) != 0 || len(st.q[1]) != 0 {
			continue
		}
		// Quiescent state: nothing in flight. Every such state must be
		// legal — a side stuck in Evicting/Draining here is a wedged
		// pendingClose the progress loop can never drain.
		legal := (st.m[0] == byUp || st.m[0] == byGone) &&
			(st.m[1] == byUp || st.m[1] == byGone) &&
			!st.h[0] && !st.h[1]
		if !legal {
			if quiesced < 3 {
				fails = append(fails, "illegal quiescent state (stuck pendingClose): "+st.String())
			}
			quiesced++
		}
	}

	// Termination of quiescence: the delivery-only graph must always reach
	// an empty-queue state. Delivery strictly shrinks the BYE population and
	// every reply chain is finite, so a cycle here means the handshake can
	// spin forever; detect by bounding the closure.
	for _, st := range all {
		seen := map[byeState]bool{st: true}
		fr := []byeState{st}
		drained := len(st.q[0]) == 0 && len(st.q[1]) == 0
		for len(fr) > 0 && !drained {
			s := fr[0]
			fr = fr[1:]
			for _, n := range byeMoves(s, true, &overflow) {
				if len(n.q[0]) == 0 && len(n.q[1]) == 0 {
					drained = true
					break
				}
				if !seen[n] {
					seen[n] = true
					fr = append(fr, n)
				}
			}
		}
		if !drained {
			fails = append(fails, "quiescence does not terminate from: "+st.String())
			break
		}
	}
	return fails
}
