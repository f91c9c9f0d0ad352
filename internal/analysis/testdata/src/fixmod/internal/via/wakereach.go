// wakereach.go is the fixture home of the cross-function park/wake cases:
// the transition lives in a helper, the return-without-wake in its caller,
// so no single body shows the hang — the shape of the PR 3 VI.Close bug.
package via

// failQuiet moves queued descriptors into a waiter-visible status and
// deliberately does not wake: its callers own the obligation. The helper
// is therefore not reported itself; wakereach verifies that each of the
// callers below discharges what it inherited.
func failQuiet(vi *VI, s Status) {
	for _, d := range vi.sendQ {
		d.Status = s
	}
}

// AbortBad inherits the helper's obligation and returns without any wake —
// wakereach must flag it: it is exported, so the escaped obligation leaves
// the provider with a waiter still parked.
func AbortBad(vi *VI) {
	failQuiet(vi, StatusDisconnected)
}

// AbortGood wakes after the helper on every path — must NOT flag.
func AbortGood(vi *VI) {
	failQuiet(vi, StatusDisconnected)
	vi.port.notifyActivity()
}

// AbortDeferred arms the wake before the helper runs — must NOT flag.
func AbortDeferred(vi *VI) {
	defer vi.port.notifyActivity()
	failQuiet(vi, StatusDisconnected)
}

// completeQuiet publishes a completion and leaves the wake to its callers.
// Every one of them wakes, so nothing is reported — neither here nor there.
func completeQuiet(d *Descriptor) {
	d.Status = StatusSuccess
}

// CompleteGood discharges the helper's obligation — must NOT flag.
func CompleteGood(vi *VI, d *Descriptor) {
	completeQuiet(d)
	vi.port.notifyActivity()
}

// dropQuiet is the same shape of helper, but its only caller never wakes.
// The helper itself must NOT flag: the obligation is reported where it
// escapes.
func dropQuiet(d *Descriptor) {
	d.Status = StatusDisconnected
}

// onDisconnect is a fabric callback (no module callers): it inherits the
// helper's obligation and returns without a wake — must flag, at the call.
func onDisconnect(d *Descriptor) {
	dropQuiet(d) // wakereach violation: nobody above this frame can wake
}
