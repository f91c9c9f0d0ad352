package via

import (
	"fmt"
	"slices"
)

// MemHandle identifies a registered memory region. Like a VI id, it is the
// region's slot in its registry's table in the low half and the slot's life in
// the high half; lives count from 1, so no handle is 0.
type MemHandle int64

// MemoryRegistry accounts for registered (pinned) memory on one port.
//
// VIA requires every communication buffer to be registered, which pins it in
// physical memory; the paper's scalability argument rests on the pinned
// footprint of the static mechanism (120 kB of buffers per VI in MVICH).
// The registry enforces the per-process limit and tracks the peak, which the
// experiment harness reports in Table 2's resource-usage columns.
type MemoryRegistry struct {
	limit int64 // a non-positive limit means unlimited
	cur   int64
	peak  int64

	regions []region // by slot: the table settles at the most regions pinned at once
	free    int32    // the last freed slot + 1, 0 for none; each free region links the next the same way
}

// region is one slot of the registry: the life it was last issued under, and
// the bytes its handle pins, or -1 while the slot is free.
type region struct {
	size int64
	life int32
	next int32 // while free: the next free slot + 1
}

// reserve sizes the table for n more regions (made, not grown, as in
// Port.Reserve).
func (m *MemoryRegistry) reserve(n int) {
	m.regions = append(make([]region, 0, len(m.regions)+n), m.regions...)
}

// Register pins size bytes and returns a handle, or ErrPinnedLimit.
func (m *MemoryRegistry) Register(size int64) (MemHandle, error) {
	if size < 0 {
		return 0, fmt.Errorf("via: negative registration size %d", size)
	}
	if m.limit > 0 && m.cur+size > m.limit {
		return 0, fmt.Errorf("%w: %d pinned + %d requested > limit %d",
			ErrPinnedLimit, m.cur, size, m.limit)
	}
	var s int
	if m.free != 0 {
		s = int(m.free - 1)
		m.free = m.regions[s].next
	} else {
		s = m.growRegions()
	}
	rg := &m.regions[s]
	rg.size = size
	rg.life++
	m.cur += size
	if m.cur > m.peak {
		m.peak = m.cur
	}
	return MemHandle(int64(rg.life)<<lifeShift | int64(s)), nil
}

// growRegions adds a slot to the table (cold path: it settles at the most
// regions pinned at once). The first growth makes room for eight, so that the
// few regions of an on-demand rank take one allocation.
func (m *MemoryRegistry) growRegions() int {
	if len(m.regions) == cap(m.regions) {
		m.regions = slices.Grow(m.regions, max(len(m.regions), 8))
	}
	m.regions = append(m.regions, region{})
	return len(m.regions) - 1
}

// Deregister unpins a region. A handle that is not live is an error: one
// never issued, one already deregistered, or one whose slot has been issued
// again since.
func (m *MemoryRegistry) Deregister(h MemHandle) error {
	s := int(h & slotMask)
	if s >= len(m.regions) || m.regions[s].size < 0 || int64(m.regions[s].life) != int64(h)>>lifeShift {
		return fmt.Errorf("via: deregister of unknown handle %d", h)
	}
	rg := &m.regions[s]
	m.cur -= rg.size
	rg.size, rg.next = -1, m.free
	m.free = int32(s) + 1
	return nil
}

// Pinned returns currently pinned bytes.
func (m *MemoryRegistry) Pinned() int64 { return m.cur }

// PeakPinned returns the high-water mark of pinned bytes.
func (m *MemoryRegistry) PeakPinned() int64 { return m.peak }
