package mpi

import (
	"encoding/binary"
	"math"
)

// Op is a reduction operator combining src into dst elementwise. Both
// buffers hold the same number of elements of the op's datatype.
type Op struct {
	Name    string
	Combine func(dst, src []byte)
}

// f64 reduction helpers.
func f64Op(name string, f func(a, b float64) float64) Op {
	return Op{Name: name, Combine: func(dst, src []byte) {
		for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(f(a, b)))
		}
	}}
}

func i64Op(name string, f func(a, b int64) int64) Op {
	return Op{Name: name, Combine: func(dst, src []byte) {
		for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
			a := int64(binary.LittleEndian.Uint64(dst[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(f(a, b)))
		}
	}}
}

// Predefined reduction operators (MPI_SUM, MPI_MAX, MPI_MIN, ... on
// float64 and int64 element types).
var (
	SumF64 = f64Op("sum-f64", func(a, b float64) float64 { return a + b })
	MaxF64 = f64Op("max-f64", math.Max)

	SumI64 = i64Op("sum-i64", func(a, b int64) int64 { return a + b })
	MaxI64 = i64Op("max-i64", func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
	BorI64 = i64Op("bor-i64", func(a, b int64) int64 { return a | b })
)

// F64Bytes encodes a float64 slice into a fresh byte buffer.
func F64Bytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	PutF64s(b, v)
	return b
}

// PutF64s encodes v into b (which must be at least 8*len(v) bytes).
func PutF64s(b []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// BytesF64 decodes a byte buffer into float64s.
func BytesF64(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	GetF64s(b, v)
	return v
}

// GetF64s decodes b into v.
func GetF64s(b []byte, v []float64) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// putI64s encodes v into b (which must be at least 8*len(v) bytes).
func putI64s(b []byte, v []int64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

// getI64s decodes b into v.
func getI64s(b []byte, v []int64) {
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
