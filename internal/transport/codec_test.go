package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"math"
	"net"
	"testing"

	"pipemare/internal/tensor"
)

// specialTensors is an f64+f32 list holding the values a lossy codec
// would mangle: −0, ±Inf, the smallest subnormals, and NaNs whose
// payload bits (quiet and signalling) must survive.
func specialTensors() []*tensor.Tensor {
	f64 := tensor.FromSlice([]float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(1),                  // smallest subnormal
		math.Float64frombits(0x7FF0000000000001), // signalling NaN, payload 1
		math.Float64frombits(0xFFF8DEADBEEF0001), // negative quiet NaN with payload
	}, 2, 3)
	f32 := tensor.FromSlice32([]float32{
		float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1),          // smallest subnormal
		math.Float32frombits(0x7FA00ABC), // signalling NaN with payload
	}, 5)
	return []*tensor.Tensor{f64, f32}
}

// specialGolden is appendTensors(specialTensors()): count 2; an f64
// tensor (tag 0, rank 2, dims 2×3, six big-endian float64 bit patterns);
// an f32 tensor (tag 1, rank 1, dim 5, five big-endian float32 bit
// patterns).
const specialGolden = "00000002" +
	"00" + "00000002" + "00000002" + "00000003" +
	"8000000000000000" + "7ff0000000000000" + "fff0000000000000" +
	"0000000000000001" + "7ff0000000000001" + "fff8deadbeef0001" +
	"01" + "00000001" + "00000005" +
	"80000000" + "7f800000" + "ff800000" + "00000001" + "7fa00abc"

// TestTensorCodecGolden pins the tensor payload encoding byte for byte
// and checks the decode returns every bit pattern unchanged.
func TestTensorCodecGolden(t *testing.T) {
	want, err := hex.DecodeString(specialGolden)
	if err != nil {
		t.Fatal(err)
	}
	src := specialTensors()
	got := appendTensors(nil, src)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding:\n got %x\nwant %x", got, want)
	}
	if len(got) != cap(got) {
		t.Errorf("encoding from nil: len %d cap %d, want an exactly sized buffer", len(got), cap(got))
	}
	c := &cursor{b: want}
	dec := c.tensorsInto(nil)
	if err := c.done(); err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(src) {
		t.Fatalf("decoded %d tensors, want %d", len(dec), len(src))
	}
	for i := range src {
		requireSameBits(t, src[i], dec[i])
	}
}

// AppendFrame appends one encoded frame (header, payload, CRC trailer)
// to dst: the frame tests' encoder. The payload must not exceed maxChunk.
func AppendFrame(dst []byte, h Header, payload []byte) []byte {
	if len(payload) > maxChunk {
		panic("transport: frame payload exceeds max chunk")
	}
	b := bytes.NewBuffer(dst)
	_ = writeFrame(b, h, payload) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// TestWriteMessageChunkGolden pins message chunking byte for byte: a
// payload three bytes over maxChunk becomes one full frame with the
// more-flag set and one 3-byte final frame. The headers and CRC
// trailers are the protocol-version-2 encoder's output for this input.
func TestWriteMessageChunkGolden(t *testing.T) {
	payload := make([]byte, maxChunk+3)
	for i := range payload {
		payload[i] = byte(i*7 + i>>8)
	}
	var want []byte
	for _, f := range []struct {
		hdr, crc string
		data     []byte
	}{
		{"504d020e010000030000000500040000", "cce702b2", payload[:maxChunk]},
		{"504d020e000000030000000500000003", "bce80f10", payload[maxChunk:]},
	} {
		hdr, _ := hex.DecodeString(f.hdr)
		crc, _ := hex.DecodeString(f.crc)
		want = append(append(append(want, hdr...), f.data...), crc...)
	}
	h := Header{Type: MsgSetState, Replica: 3, Stage: 5}
	var got bytes.Buffer
	if err := WriteMessage(&got, h, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteMessage wrote %d bytes that differ from the pinned %d-byte frame pair", got.Len(), len(want))
	}
	gh, data, rest, err := NextMessage(want)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h || !bytes.Equal(data, payload) || len(rest) != 0 {
		t.Fatalf("NextMessage: header %+v, %d payload bytes, %d left over", gh, len(data), len(rest))
	}
}

// requireSameBits fails unless a and b agree in dtype, shape and every
// element's bit pattern.
func requireSameBits(t *testing.T, a, b *tensor.Tensor) {
	t.Helper()
	if a.DType() != b.DType() || !sameShape(a.Shape, b.Shape) || len(a.Data) != len(b.Data) || len(a.Data32) != len(b.Data32) {
		t.Fatalf("tensor %v %v differs from %v %v", a.DType(), a.Shape, b.DType(), b.Shape)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("f64 element %d: bits %#x, want %#x", i, math.Float64bits(b.Data[i]), math.Float64bits(a.Data[i]))
		}
	}
	for i := range a.Data32 {
		if math.Float32bits(a.Data32[i]) != math.Float32bits(b.Data32[i]) {
			t.Fatalf("f32 element %d: bits %#x, want %#x", i, math.Float32bits(b.Data32[i]), math.Float32bits(a.Data32[i]))
		}
	}
}

// stageStates is a fixed StateSource: per-stage tensor lists.
type stageStates [][]*tensor.Tensor

func (s stageStates) StageState(stage int) []*tensor.Tensor { return s[stage] }

// TestStateChecksumPinned pins StateChecksum's value for a fixed
// two-stage f64+f32 state: the handshake compares checksums computed by
// different builds of the leader and worker, so the hash of a given
// state must never change.
func TestStateChecksumPinned(t *testing.T) {
	w := tensor.New(3, 4)
	for i := range w.Data {
		w.Data[i] = float64(i)*0.37 - 1
	}
	st := stageStates{
		{w, tensor.FromSlice([]float64{2.5, -7}, 2)},
		specialTensors(),
	}
	const want = 0x3ba5c6fd
	if got := StateChecksum(st, len(st)); got != want {
		t.Fatalf("StateChecksum = %#08x, want %#08x", got, want)
	}
}

// requireTruncationFails checks that every strict prefix of a valid
// payload fails to decode with decode.
func requireTruncationFails(t *testing.T, b []byte, decode func(c *cursor)) {
	t.Helper()
	for cut := 0; cut < len(b); cut++ {
		c := &cursor{b: b[:cut]}
		decode(c)
		if c.done() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(b))
		}
	}
}

// FuzzTensorsInto throws arbitrary bytes at the tensor-list and ring
// decoders. Decoding must never panic; whatever decodes exactly must
// re-encode to the same bytes and reject every truncation; and tensors
// built from the input's bits must round-trip through appendTensors and
// AppendRing bit for bit.
func FuzzTensorsInto(f *testing.F) {
	f.Add(appendTensors(nil, specialTensors()))
	f.Add(AppendRing(nil, 3, [][]*tensor.Tensor{specialTensors(), specialTensors()}))
	f.Add(AppendRing(nil, -1, nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 2, 0, 0, 0, 0})                         // unknown dtype tag
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 1, 0x7f, 0xff, 0xff, 0xff}) // huge dim
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		decodeList := func(c *cursor) { c.tensorsInto(nil) }
		lc := &cursor{b: data}
		ts := lc.tensorsInto(nil)
		if lc.done() == nil {
			if re := appendTensors(nil, ts); !bytes.Equal(re, data) {
				t.Fatalf("tensor list re-encodes to %x, want %x", re, data)
			}
			requireTruncationFails(t, data, decodeList)
		}
		decodeRing := func(c *cursor) { c.ring() }
		rc := &cursor{b: data}
		base, snaps := rc.ring()
		if rc.done() == nil {
			if re := AppendRing(nil, base, snaps); !bytes.Equal(re, data) {
				t.Fatalf("ring re-encodes to %x, want %x", re, data)
			}
			requireTruncationFails(t, data, decodeRing)
		}

		// Encode side: the input's bits, zero-padded, as one f64 and one
		// f32 tensor (dims must be positive, so each holds at least one
		// element).
		bits := append(append([]byte(nil), data...), make([]byte, 8)...)
		f64 := tensor.New(len(data)/8 + 1)
		for i := range f64.Data {
			f64.Data[i] = math.Float64frombits(binary.BigEndian.Uint64(bits[8*i:]))
		}
		f32 := tensor.NewOf(tensor.Float32, len(data)/4+1)
		for i := range f32.Data32 {
			f32.Data32[i] = math.Float32frombits(binary.BigEndian.Uint32(bits[4*i:]))
		}
		src := []*tensor.Tensor{f64, f32}
		enc := appendTensors(nil, src)
		c := &cursor{b: enc}
		dec := c.tensorsInto(nil)
		if err := c.done(); err != nil {
			t.Fatalf("decoding an encoded list: %v", err)
		}
		for i := range src {
			requireSameBits(t, src[i], dec[i])
		}
		requireTruncationFails(t, enc, decodeList)
		ring := AppendRing(nil, len(data), [][]*tensor.Tensor{src, {f32}})
		requireTruncationFails(t, ring, decodeRing)
	})
}

// benchTensors is one 8 MiB tensor of the given dtype.
func benchTensors(dt tensor.DType) []*tensor.Tensor {
	t := tensor.NewOf(dt, (8<<20)/dt.Size())
	for i := range t.Data {
		t.Data[i] = float64(i) * 1e-3
	}
	for i := range t.Data32 {
		t.Data32[i] = float32(i) * 1e-3
	}
	return []*tensor.Tensor{t}
}

var benchDTypes = []tensor.DType{tensor.Float64, tensor.Float32}

// BenchmarkAppendTensors measures encoding an 8 MiB tensor into a fresh
// payload, as every leader-side encoder does.
func BenchmarkAppendTensors(b *testing.B) {
	for _, dt := range benchDTypes {
		b.Run(dt.String(), func(b *testing.B) {
			ts := benchTensors(dt)
			b.SetBytes(8 << 20)
			b.ReportAllocs()
			for b.Loop() {
				appendTensors(nil, ts)
			}
		})
	}
}

// BenchmarkTensorsInto measures decoding an 8 MiB tensor into a reused
// buffer, the steady-state gradient and state path.
func BenchmarkTensorsInto(b *testing.B) {
	for _, dt := range benchDTypes {
		b.Run(dt.String(), func(b *testing.B) {
			payload := appendTensors(nil, benchTensors(dt))
			var bufs []*tensor.Tensor
			b.SetBytes(8 << 20)
			b.ReportAllocs()
			for b.Loop() {
				c := &cursor{b: payload}
				bufs = c.tensorsInto(bufs)
				if err := c.done(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConnRoundTrip measures one 8 MiB tensor message end to end
// over an in-process pipe: encode, Send, Recv, decode.
func BenchmarkConnRoundTrip(b *testing.B) {
	for _, dt := range benchDTypes {
		b.Run(dt.String(), func(b *testing.B) {
			ts := benchTensors(dt)
			na, nb := net.Pipe()
			tx, rx := NewConn(na), NewConn(nb)
			defer tx.Close()
			defer rx.Close()
			ctx := context.Background()
			errc := make(chan error, 1)
			var bufs []*tensor.Tensor
			b.SetBytes(8 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			go func() {
				for i := 0; i < b.N; i++ {
					if err := tx.Send(ctx, Msg{Type: MsgSetState, Stage: 0, Data: appendTensors(nil, ts)}); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
			for i := 0; i < b.N; i++ {
				m, err := rx.Recv(ctx)
				if err != nil {
					b.Fatal(err)
				}
				c := &cursor{b: m.Data}
				bufs = c.tensorsInto(bufs)
				if err := c.done(); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestConnRecvReassemblesChunkedMessages pins Recv's reassembly buffer:
// chunked messages, growing and shrinking, reassemble exactly into a
// buffer that grew geometrically (less than twice the message), and a
// single-frame message arrives in a buffer of exactly its size.
func TestConnRecvReassemblesChunkedMessages(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	sizes := []int{3*maxChunk + 5, maxChunk + 1, 5*maxChunk + 7, 10, 5*maxChunk + 7}
	ctx := context.Background()
	go func() {
		for i, n := range sizes {
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(i + j)
			}
			if err := a.Send(ctx, Msg{Type: MsgChunkDone, Stage: -1, Data: data}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	for i, n := range sizes {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(m.Data) != n {
			t.Fatalf("recv %d: %d bytes, want %d", i, len(m.Data), n)
		}
		for j, v := range m.Data {
			if v != byte(i+j) {
				t.Fatalf("recv %d: byte %d is %d, want %d", i, j, v, byte(i+j))
			}
		}
		if n <= maxChunk && cap(m.Data) != n {
			t.Fatalf("recv %d: single-frame message of %d bytes has capacity %d, want exactly its size", i, n, cap(m.Data))
		}
		if cap(m.Data) >= 2*n {
			t.Fatalf("recv %d: %d-byte message has capacity %d, want under twice its size", i, n, cap(m.Data))
		}
	}
}
