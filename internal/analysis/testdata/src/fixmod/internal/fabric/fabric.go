// Package fabric is the fixture twin of viampi's internal/fabric: it
// exposes the entry points the chargeflow rule audits.
package fabric

// Cluster mirrors the real fabric.Cluster surface the rule knows about.
type Cluster struct{}

// Send models wire transmission (ChargeRequired in the policy).
func (c *Cluster) Send(size int) {}

// Attach models endpoint attach (ChargeRequired in the policy).
func (c *Cluster) Attach() int { return 0 }
