package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"pipemare/internal/tensor"
)

// Payload encoding: big-endian fixed-width integers and raw IEEE-754
// float bits, composed with a panic-free cursor so malformed payloads
// surface as errors (FuzzDecodeFrame covers the frame layer and
// FuzzTensorsInto the tensor-list and ring payloads; the message
// decoders below never index past their input).

func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// cursor reads a payload left to right, latching the first error.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("transport: "+format, args...)
	}
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b) < n {
		c.fail("payload truncated: need %d bytes, have %d", n, len(c.b))
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) boolean() bool { return c.u8() != 0 }

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// i32 decodes a u32 written by appendU32(uint32(v)) back to a signed int.
func (c *cursor) i32() int { return int(int32(c.u32())) }

// count decodes a u32 element count, bounding it so a corrupt length
// cannot force a huge allocation: each element needs at least min bytes
// of remaining payload.
func (c *cursor) count(min int) int {
	n := int(c.u32())
	if c.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n < 0 || n > len(c.b)/min {
		c.fail("payload count %d exceeds remaining %d bytes", n, len(c.b))
		return 0
	}
	return n
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("transport: %d trailing payload bytes", len(c.b))
	}
	return nil
}

// tensorSize is the encoded size of t: tag, rank, dims, then the data
// at the dtype's width.
func tensorSize(t *tensor.Tensor) int {
	return 1 + 4 + 4*len(t.Shape) + 8*len(t.Data) + 4*len(t.Data32)
}

// tensorsSize is the encoded size of a counted tensor list.
func tensorsSize(ts []*tensor.Tensor) int {
	n := 4
	for _, t := range ts {
		n += tensorSize(t)
	}
	return n
}

// grow returns dst with room for n more bytes, reallocating to exactly
// len(dst)+n when it has less — never a growth chain.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

// appendTensor encodes a tensor: a dtype tag byte, rank, dims, then the
// raw IEEE-754 bits of the contiguous data at the dtype's width. The tag
// is what lets a float32 run checkpoint and all-reduce without ever
// widening to float64 on the wire. The tensor's bytes are reserved once
// and filled in place.
func appendTensor(dst []byte, t *tensor.Tensor) []byte {
	dst = grow(dst, tensorSize(t))
	dst = append(dst, byte(t.DType()))
	dst = appendU32(dst, uint32(len(t.Shape)))
	for _, d := range t.Shape {
		dst = appendU32(dst, uint32(d))
	}
	n := len(dst)
	dst = dst[:n+8*len(t.Data)+4*len(t.Data32)]
	b := dst[n:]
	for _, v := range t.Data32 {
		binary.BigEndian.PutUint32(b, math.Float32bits(v))
		b = b[4:]
	}
	for _, v := range t.Data {
		binary.BigEndian.PutUint64(b, math.Float64bits(v))
		b = b[8:]
	}
	return dst
}

// tensorInto decodes one tensor, reusing buf when its shape and dtype
// match (the steady-state path for per-stage gradient and state traffic).
// The data is taken as one size·elem slice — a single bounds check — and
// decoded in a tight loop.
func (c *cursor) tensorInto(buf *tensor.Tensor) *tensor.Tensor {
	tag := c.u8()
	if c.err != nil {
		return nil
	}
	if tag > uint8(tensor.Float32) {
		c.fail("tensor dtype tag %d unknown", tag)
		return nil
	}
	dt := tensor.DType(tag)
	es := dt.Size()
	rank := c.count(4)
	shape := make([]int, rank)
	size := 1
	for i := range shape {
		d := int(c.u32())
		if c.err != nil {
			return nil
		}
		if d <= 0 || (size > 0 && d > len(c.b)/(es*size)+1) {
			c.fail("tensor dim %d out of range", d)
			return nil
		}
		shape[i] = d
		size *= d
	}
	if size > len(c.b)/es {
		c.fail("tensor size %d exceeds remaining payload", size)
		return nil
	}
	b := c.take(size * es)
	if b == nil {
		return nil
	}
	dst := buf
	if dst == nil || dst.DType() != dt || !sameShape(dst.Shape, shape) {
		dst = tensor.NewOf(dt, shape...)
	}
	if dt == tensor.Float32 {
		d := dst.Data32[:size]
		for i := range d {
			d[i] = math.Float32frombits(binary.BigEndian.Uint32(b))
			b = b[4:]
		}
	} else {
		d := dst.Data[:size]
		for i := range d {
			d[i] = math.Float64frombits(binary.BigEndian.Uint64(b))
			b = b[8:]
		}
	}
	return dst
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// appendTensors encodes a counted list of tensors, reserving the whole
// list's bytes up front.
func appendTensors(dst []byte, ts []*tensor.Tensor) []byte {
	dst = grow(dst, tensorsSize(ts))
	dst = appendU32(dst, uint32(len(ts)))
	for _, t := range ts {
		dst = appendTensor(dst, t)
	}
	return dst
}

// tensorsInto decodes a counted tensor list, reusing bufs elementwise.
func (c *cursor) tensorsInto(bufs []*tensor.Tensor) []*tensor.Tensor {
	n := c.count(4)
	if c.err != nil {
		return nil
	}
	out := bufs
	if cap(out) < n {
		out = make([]*tensor.Tensor, n)
		copy(out, bufs)
	}
	out = out[:n]
	for i := 0; i < n; i++ {
		out[i] = c.tensorInto(out[i])
		if c.err != nil {
			return nil
		}
	}
	return out
}
