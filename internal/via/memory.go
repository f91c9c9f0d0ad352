package via

import "fmt"

// MemHandle identifies a registered memory region.
type MemHandle int64

// MemoryRegistry accounts for registered (pinned) memory on one port.
//
// VIA requires every communication buffer to be registered, which pins it in
// physical memory; the paper's scalability argument rests on the pinned
// footprint of the static mechanism (120 kB of buffers per VI in MVICH).
// The registry enforces the per-process limit and tracks the peak, which the
// experiment harness reports in Table 2's resource-usage columns.
type MemoryRegistry struct {
	limit   int64
	cur     int64
	peak    int64
	next    MemHandle
	regions map[MemHandle]int64
}

// NewMemoryRegistry creates a registry with the given pinned-byte limit.
// A non-positive limit means unlimited.
func NewMemoryRegistry(limit int64) *MemoryRegistry {
	return &MemoryRegistry{limit: limit, regions: make(map[MemHandle]int64)}
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
	m.next++
	h := m.next
	m.regions[h] = size
	m.cur += size
	if m.cur > m.peak {
		m.peak = m.cur
	}
	return h, nil
}

// Deregister unpins a region. Unknown handles are an error.
func (m *MemoryRegistry) Deregister(h MemHandle) error {
	size, ok := m.regions[h]
	if !ok {
		return fmt.Errorf("via: deregister of unknown handle %d", h)
	}
	delete(m.regions, h)
	m.cur -= size
	return nil
}

// Pinned returns currently pinned bytes.
func (m *MemoryRegistry) Pinned() int64 { return m.cur }

// PeakPinned returns the high-water mark of pinned bytes.
func (m *MemoryRegistry) PeakPinned() int64 { return m.peak }
