// seqcheck.go is the fixture home of the paired rule's send-after-close
// cases: VI.Close and VI.PostSend mirror the VI slot's release and use.
package via

// Close tears the fixture VI down (a Releases entry of the VI-slot spec; a
// releaser's own body is exempt from the use-after-release verdict).
func (vi *VI) Close() {
	if vi.state == ViClosed {
		return
	}
	vi.state = ViClosed
	vi.port.notifyActivity()
}

// PostSend queues a descriptor (a Uses entry of the VI-slot spec).
func (vi *VI) PostSend(d *Descriptor) error {
	vi.sendQ = append(vi.sendQ, d)
	return nil
}

// reconnect mirrors the real reconnect path: a fresh endpoint.
func reconnect() *VI {
	return &VI{port: &Port{}}
}

// sendAfterClose posts on the endpoint it just closed — must flag.
func sendAfterClose(vi *VI, d *Descriptor) error {
	vi.Close()
	return vi.PostSend(d)
}

// evictMaybe closes on one branch and sends after the join — must flag (the
// may-analysis sees the closed path).
func evictMaybe(vi *VI, d *Descriptor, evict bool) error {
	if evict {
		vi.Close()
	}
	return vi.PostSend(d)
}

// evictReconnect rebinds through the reconnect path before sending — must
// NOT flag.
func evictReconnect(vi *VI, d *Descriptor) error {
	vi.Close()
	vi = reconnect()
	return vi.PostSend(d)
}
