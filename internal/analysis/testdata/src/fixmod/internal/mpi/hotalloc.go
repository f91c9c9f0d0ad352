// hotalloc.go is the fixture home of the hot-path allocation cases:
// Rank.progress is a Policy.HotRoots entry, so each allocating construct in
// it is one violation class, and so is what it calls.
package mpi

// Rank mirrors the real progress-engine owner.
type Rank struct {
	names []string
	n     int
}

func sink(v interface{}) {}

func (r *Rank) progress(tag string) {
	buf := make([]byte, 16) // hotalloc violation: make on the hot path
	_ = buf
	p := &Rank{} // hotalloc violation: escaping composite literal
	_ = p
	f := func() { r.n++ } // hotalloc violation: closure literal
	f()
	msg := "rank:" + tag // hotalloc violation: string concatenation
	_ = msg
	sink(r.n) // hotalloc violation: interface boxing
	r.step()
	r.growNames()
}

// step is named nowhere in the policy: it is hot because progress calls it.
func (r *Rank) step() {
	r.names = make([]string, 4) // hotalloc violation: a callee of a hot root
}

// growNames is a free-list grower by name, so the walk does not enter it —
// must NOT flag.
func (r *Rank) growNames() { r.names = append(r.names, make([]string, 8)...) }

// tick is an event object: the scheduler fires it through simnet.Action, so
// its Fire is hot without anything naming it (or calling it by name).
type tick struct{ log []byte }

func (t *tick) Fire(uint64) {
	t.log = make([]byte, 8) // hotalloc violation: an event the scheduler fires
	// Handed to a function that only calls it, the closure stays on this
	// stack — must NOT flag.
	t.until(func() bool { return len(t.log) > 0 })
}

// until does nothing with cond but call it.
func (t *tick) until(cond func() bool) {
	for !cond() {
	}
}

// Cold is reached from no root: the same constructs — must NOT flag.
func Cold(tag string) string {
	b := make([]byte, 1)
	_ = b
	return "cold:" + tag
}
