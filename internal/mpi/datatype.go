package mpi

import "fmt"

// Datatype describes a non-contiguous memory layout in bytes — the MPI
// derived-datatype facility reduced to its pack/unpack essence. A Datatype
// is a list of (offset, length) extents relative to a base pointer; a
// sender packs on the way out and a receiver unpacks on the way in, which is
// exactly how MPICH's ADI handled non-contiguous data on VIA-class
// networks (no scatter/gather DMA).
type Datatype struct {
	blocks []extent
	size   int // packed bytes
	span   int // bytes from base to the end of the last block
}

type extent struct{ off, len int }

// Vector describes count blocks of blocklen bytes, the start of each
// separated by stride bytes (MPI_Type_vector with byte elements).
func Vector(count, blocklen, stride int) (Datatype, error) {
	if count < 0 || blocklen < 0 {
		return Datatype{}, fmt.Errorf("mpi: Vector(%d, %d, %d): negative shape", count, blocklen, stride)
	}
	if count > 0 && blocklen > 0 && stride < blocklen {
		return Datatype{}, fmt.Errorf("mpi: Vector stride %d overlaps blocklen %d", stride, blocklen)
	}
	var d Datatype
	for i := 0; i < count; i++ {
		if blocklen == 0 {
			continue
		}
		d.blocks = append(d.blocks, extent{i * stride, blocklen})
		d.size += blocklen
		if end := i*stride + blocklen; end > d.span {
			d.span = end
		}
	}
	return d, nil
}

// Pack gathers the layout's bytes from buf into a fresh contiguous buffer.
func (d Datatype) Pack(buf []byte) ([]byte, error) {
	if len(buf) < d.span {
		return nil, fmt.Errorf("mpi: Pack buffer %d < span %d", len(buf), d.span)
	}
	out := make([]byte, 0, d.size)
	for _, b := range d.blocks {
		out = append(out, buf[b.off:b.off+b.len]...)
	}
	return out, nil
}

// Unpack scatters packed bytes into buf according to the layout.
func (d Datatype) Unpack(buf, packed []byte) error {
	if len(buf) < d.span {
		return fmt.Errorf("mpi: Unpack buffer %d < span %d", len(buf), d.span)
	}
	if len(packed) < d.size {
		return fmt.Errorf("mpi: Unpack packed %d < size %d", len(packed), d.size)
	}
	off := 0
	for _, b := range d.blocks {
		copy(buf[b.off:b.off+b.len], packed[off:off+b.len])
		off += b.len
	}
	return nil
}
