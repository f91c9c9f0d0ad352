package mpi

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestVectorPackUnpack(t *testing.T) {
	// A 4x4 byte matrix's second column: count=4, blocklen=1, stride=4.
	d, err := Vector(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := []byte{
		0, 10, 0, 0,
		0, 11, 0, 0,
		0, 12, 0, 0,
		0, 13, 0, 0,
	}
	col, err := d.Pack(m[1:]) // base at the column head
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(col, []byte{10, 11, 12, 13}) {
		t.Fatalf("col = %v", col)
	}
	dst := make([]byte, 16)
	if err := d.Unpack(dst[1:], col); err != nil {
		t.Fatal(err)
	}
	if dst[1] != 10 || dst[5] != 11 || dst[9] != 12 || dst[13] != 13 {
		t.Fatalf("unpacked matrix wrong: %v", dst)
	}
	if dst[0] != 0 || dst[2] != 0 {
		t.Fatal("unpack disturbed gaps")
	}
}

func TestVectorValidation(t *testing.T) {
	if _, err := Vector(2, 4, 3); err == nil {
		t.Error("overlapping stride accepted")
	}
	if _, err := Vector(-1, 1, 1); err == nil {
		t.Error("negative count accepted")
	}
	if d, err := Vector(3, 0, 8); err != nil || d.size != 0 {
		t.Error("zero blocklen should be an empty layout")
	}
}

func TestPackBufferTooSmall(t *testing.T) {
	d, err := Vector(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Pack(make([]byte, 3)); err == nil {
		t.Error("short pack accepted")
	}
	if err := d.Unpack(make([]byte, 3), make([]byte, 4)); err == nil {
		t.Error("short unpack accepted")
	}
	if err := d.Unpack(make([]byte, 8), make([]byte, 1)); err == nil {
		t.Error("short packed accepted")
	}
}

// Property: Unpack(Pack(x)) restores exactly the layout's bytes and leaves
// gap bytes untouched, for random vector shapes.
func TestPropertyPackUnpackRoundTrip(t *testing.T) {
	f := func(countRaw, blockRaw, padRaw uint8, data []byte) bool {
		count := int(countRaw)%8 + 1
		block := int(blockRaw)%8 + 1
		stride := block + int(padRaw)%8
		d, err := Vector(count, block, stride)
		if err != nil {
			return false
		}
		src := make([]byte, d.span+4)
		for i := range src {
			if i < len(data) {
				src[i] = data[i]
			} else {
				src[i] = byte(i * 37)
			}
		}
		packed, err := d.Pack(src)
		if err != nil || len(packed) != d.size {
			return false
		}
		dst := bytes.Repeat([]byte{0xEE}, len(src))
		if err := d.Unpack(dst, packed); err != nil {
			return false
		}
		// Blocks restored, gaps untouched.
		for i := 0; i < count; i++ {
			for j := 0; j < block; j++ {
				if dst[i*stride+j] != src[i*stride+j] {
					return false
				}
			}
			for j := block; j < stride && i*stride+j < d.span; j++ {
				if dst[i*stride+j] != 0xEE {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
