// Package tcpvia is the fixture home of the lock-discipline cases. The
// sync and via imports are deliberate extra violations (determinism and
// layering): the fixture policy strips the restricted leaf's exemption so
// every rule sees this file raw.
package tcpvia

import (
	"sync"

	"fixmod/internal/via"
)

// Manager mirrors the real tcpvia.Manager leaf-lock shape; metricsMu is
// declared in Policy.LeafLocks.
type Manager struct {
	metricsMu sync.Mutex
	n         int
}

// CountBad leaks the lock on the early-return path and re-enters a layered
// package while holding the leaf — must flag twice.
func (m *Manager) CountBad(skip bool) int {
	m.metricsMu.Lock() // locks violation: no Unlock on the skip path
	m.n++
	via.Poke() // locks violation: layered call under the leaf lock
	if skip {
		return m.n
	}
	m.metricsMu.Unlock()
	return m.n
}

// CountGood defers the unlock and stays inside the leaf — must NOT flag.
func (m *Manager) CountGood() int {
	m.metricsMu.Lock()
	defer m.metricsMu.Unlock()
	m.n++
	return m.n
}

// CountBranches unlocks explicitly on every path — must NOT flag.
func (m *Manager) CountBranches(fast bool) int {
	m.metricsMu.Lock()
	if fast {
		n := m.n
		m.metricsMu.Unlock()
		return n
	}
	m.n++
	m.metricsMu.Unlock()
	return m.n
}

// CountDeferredLiteral unlocks inside a deferred literal and, still holding
// the lock, calls something that takes a second one: the rule must see the
// unlock (no leak report) and record the order edge metricsMu → Node.mu
// (nothing takes the two the other way round, so no cycle) — must NOT flag.
func (m *Manager) CountDeferredLiteral(n *Node) int {
	m.metricsMu.Lock()
	defer func() {
		m.n++
		m.metricsMu.Unlock()
	}()
	n.lockNode()
	return m.n
}
