package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFSMDotMatchesCommitted pins the generated connection-FSM diagram
// against the committed docs/connection-fsm.dot (what `make fsm-dot`
// writes), so `go test ./...` catches a state machine edited without
// regenerating the diagram.
func TestFSMDotMatchesCommitted(t *testing.T) {
	m := loadRepo(t)
	got := FSMDot(m, DefaultPolicy())
	path := filepath.Join("..", "..", "docs", "connection-fsm.dot")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading committed diagram: %v", err)
	}
	if got != string(want) {
		t.Errorf("docs/connection-fsm.dot is stale — run 'make fsm-dot' and commit the diff\ngenerated:\n%s", got)
	}
}

// TestFSMDotExtractsTheRealMachine spot-checks the extraction against the
// transitions the connection manager is known to implement, independent of
// DOT formatting.
func TestFSMDotExtractsTheRealMachine(t *testing.T) {
	m := loadRepo(t)
	dot := FSMDot(m, DefaultPolicy())
	for _, edge := range []string{
		`"ViIdle" -> "ViConnecting" [label="ConnectPeerRequest"]`,
		`"ViIdle" -> "ViConnecting" [label="Accept"]`,
		`"ViConnecting" -> "ViConnected" [label="kindConnAck"]`,
		`"ViConnected" -> "ViDisconnected" [label="kindDisc"]`,
		`"any" -> "ViIdle" [label="resetHandshake"]`,
		`"any" -> "ViClosed" [label="Close"]`,
		`"any" -> "ViError" [label="enterError"]`,
	} {
		if !strings.Contains(dot, edge) {
			t.Errorf("extracted DOT is missing edge %s", edge)
		}
	}
}

// TestModelEdgesExistInTheCode ties the product-automaton models below to the
// tree: each transition they abstract must be in the machine extracted from
// the code, or the models prove things about a protocol nobody runs.
func TestModelEdgesExistInTheCode(t *testing.T) {
	p := DefaultPolicy()
	const typeKey = "internal/via.ViState"
	mach, errMsg := extractFSM(loadRepo(t), p, typeKey, p.FSMStates[typeKey])
	if errMsg != "" {
		t.Fatal(errMsg)
	}
	for _, req := range [][2]string{
		{"ViIdle", "ViConnecting"},        // issue / accept
		{"ViConnecting", "ViConnected"},   // handshake completes
		{"ViConnecting", "ViIdle"},        // NACK reset (resetHandshake)
		{"ViConnected", "ViDisconnected"}, // peer disconnect
		{"ViConnected", "ViClosed"},       // eviction close
	} {
		found := false
		for _, e := range mach.Edges {
			found = found || e.To == req[1] && e.From[req[0]]
		}
		if !found {
			t.Errorf("extracted machine for %s has no %s → %s transition, but the connection models depend on it", typeKey, req[0], req[1])
		}
	}
}

// TestConnectionModelAdoptionOn is the establishment proof: with crossing-
// request adoption (the PR 3 rule), the 2-peer product automaton under
// request drop/refusal/reordering is deadlock-free, livelock-free, and
// always reaches both-connected once faults stop.
func TestConnectionModelAdoptionOn(t *testing.T) {
	if fails := CheckConnectionModel(true); len(fails) != 0 {
		t.Errorf("adoption-on model violates the establishment contract:\n  %s", strings.Join(fails, "\n  "))
	}
}

// TestConnectionModelAdoptionOffLivelocks proves adoption is load-bearing:
// without it, the checker must find the crossing-NACK livelock (both peers
// refuse each other's request, reset, and collide again forever). If this
// ever passes clean, the model has drifted and proves nothing.
func TestConnectionModelAdoptionOffLivelocks(t *testing.T) {
	fails := CheckConnectionModel(false)
	if len(fails) == 0 {
		t.Fatal("adoption-off model checks clean, so the model no longer demonstrates why crossing-request adoption exists")
	}
	found := false
	for _, f := range fails {
		if strings.Contains(f, "livelock") {
			found = true
		}
	}
	if !found {
		t.Errorf("adoption-off model fails, but not with the expected livelock:\n  %s", strings.Join(fails, "\n  "))
	}
}

// TestByeModelQuiesces is the eviction proof: the BYE/BYEACK/BYENACK
// handshake always drains to a legal quiescent state — no side stuck
// mid-eviction, no held pendingClose packet surviving teardown.
func TestByeModelQuiesces(t *testing.T) {
	if fails := CheckByeModel(); len(fails) != 0 {
		t.Errorf("eviction model violates quiescence:\n  %s", strings.Join(fails, "\n  "))
	}
}
