package transport

import (
	"fmt"

	"pipemare/internal/tensor"
)

// Exported payload codec. The checkpoint writer (internal/core) encodes
// trainer state with the exact primitives and payloads the wire uses —
// big-endian integers, raw IEEE-754 float bits, counted tensor lists, the
// ring encoding — so a checkpoint file round-trips state as bit-exactly
// as a collective does.

// AppendU32 appends a big-endian uint32.
func AppendU32(dst []byte, v uint32) []byte { return appendU32(dst, v) }

// AppendU64 appends a big-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return appendU64(dst, v) }

// AppendBool appends one byte, 1 for true.
func AppendBool(dst []byte, v bool) []byte { return appendBool(dst, v) }

// AppendTensors appends a counted tensor list.
func AppendTensors(dst []byte, ts []*tensor.Tensor) []byte { return appendTensors(dst, ts) }

// AppendRing appends a stage's weight-version ring: the oldest retained
// version number, the snapshot count, then each snapshot (oldest first)
// as a counted tensor list. MsgSetRing and the checkpoint's ring section
// both carry exactly this payload.
func AppendRing(dst []byte, base int, snaps [][]*tensor.Tensor) []byte {
	dst = grow(dst, ringSize(snaps))
	dst = appendU32(dst, uint32(base))
	dst = appendU32(dst, uint32(len(snaps)))
	for _, snap := range snaps {
		dst = appendTensors(dst, snap)
	}
	return dst
}

// ringSize is the encoded size of a weight-version ring (AppendRing).
func ringSize(snaps [][]*tensor.Tensor) int {
	n := 8
	for _, snap := range snaps {
		n += tensorsSize(snap)
	}
	return n
}

// ring decodes an AppendRing payload.
func (c *cursor) ring() (base int, snaps [][]*tensor.Tensor) {
	base = c.i32()
	snaps = make([][]*tensor.Tensor, c.count(4))
	for i := range snaps {
		snaps[i] = c.tensorsInto(nil)
	}
	return base, snaps
}

// Cursor reads a payload left to right, latching the first error — the
// exported face of the wire decoder for checkpoint readers.
type Cursor struct{ c cursor }

// NewCursor reads b.
func NewCursor(b []byte) *Cursor { return &Cursor{c: cursor{b: b}} }

// U64 decodes a big-endian uint64.
func (r *Cursor) U64() uint64 { return r.c.u64() }

// Bool decodes one byte as a bool.
func (r *Cursor) Bool() bool { return r.c.boolean() }

// I32 decodes a u32 written from a signed int back to that int.
func (r *Cursor) I32() int { return r.c.i32() }

// TensorsInto decodes a counted tensor list, reusing bufs elementwise.
func (r *Cursor) TensorsInto(bufs []*tensor.Tensor) []*tensor.Tensor { return r.c.tensorsInto(bufs) }

// Ring decodes a weight-version ring written by AppendRing.
func (r *Cursor) Ring() (base int, snaps [][]*tensor.Tensor) { return r.c.ring() }

// Err returns the latched decode error, if any.
func (r *Cursor) Err() error { return r.c.err }

// Done errors unless the payload decoded exactly.
func (r *Cursor) Done() error { return r.c.done() }

// NextMessage decodes the next message from a frame stream produced by
// WriteMessage, reassembling chunked frames and verifying each frame's
// magic, version, bounds and CRC. It returns the header, the payload
// (copied out into an exactly sized buffer when chunked, a sub-slice of
// b otherwise), and the remainder of b after the message.
func NextMessage(b []byte) (Header, []byte, []byte, error) {
	h, payload, rest, err := DecodeFrame(b)
	if err != nil {
		return Header{}, nil, nil, err
	}
	if !h.More() {
		return h, payload, rest, nil
	}
	chunks, total := [][]byte{payload}, len(payload)
	for more := true; more; {
		c, p, r, err := DecodeFrame(rest)
		if err != nil {
			return Header{}, nil, nil, err
		}
		if c.Type != h.Type || c.Replica != h.Replica || c.Stage != h.Stage {
			return Header{}, nil, nil, fmt.Errorf("transport: chunk header mismatch: type %d/%d", c.Type, h.Type)
		}
		if total+len(p) > maxMsg {
			return Header{}, nil, nil, fmt.Errorf("transport: message exceeds %d bytes", maxMsg)
		}
		chunks, total, rest, more = append(chunks, p), total+len(p), r, c.More()
	}
	data := make([]byte, 0, total)
	for _, p := range chunks {
		data = append(data, p...)
	}
	return Header{Type: h.Type, Replica: h.Replica, Stage: h.Stage}, data, rest, nil
}
