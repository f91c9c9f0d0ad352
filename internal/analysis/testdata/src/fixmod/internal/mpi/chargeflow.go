// chargeflow.go is the fixture home of the interprocedural cost-charging
// cases: every exported function here is an MPI entry point
// (Policy.ChargeRootPkgs), and the fabric transmit is buried one call deep,
// where no single function body shows both the charge and the transmit.
package mpi

import (
	"fixmod/internal/fabric"
	"fixmod/internal/simnet"
)

// Chan mirrors the channel shape that owns a fabric handle and a process.
type Chan struct {
	cl   *fabric.Cluster
	proc *simnet.Proc
}

// transmit reaches the fabric; whether that is charged depends on the
// caller's path, which only the interprocedural rule can see.
func (c *Chan) transmit() {
	c.cl.Send(32)
}

// charge pays CPU cost on every path, so a call to it counts as charging.
func (c *Chan) charge() {
	c.proc.Compute(5)
}

// SendUncharged reaches the transmit through the helper with no charge on
// the path — must flag.
func (c *Chan) SendUncharged() {
	c.transmit() // chargeflow violation: uncharged path to fabric.Send
}

// SendCharged charges inline before descending — must NOT flag.
func (c *Chan) SendCharged() {
	c.proc.Compute(10)
	c.transmit()
}

// SendChargedInHelper charges inside a helper — must NOT flag: a charge
// made anywhere on the call chain before the transmit counts, whichever
// function body it sits in.
func (c *Chan) SendChargedInHelper() {
	c.charge()
	c.transmit()
}

// SendBranchUncharged charges one branch but not the other — must flag:
// the rule is per-path, not per-body.
func (c *Chan) SendBranchUncharged(fast bool) {
	if !fast {
		c.charge()
	}
	c.transmit() // chargeflow violation: the fast path never charged
}

// SendChargeDeferred books the charge in a deferred literal — must flag: the
// literal runs at return, after the transmit has gone out free.
func (c *Chan) SendChargeDeferred() {
	defer func() { c.charge() }()
	c.transmit() // chargeflow violation: the deferred charge comes too late
}
