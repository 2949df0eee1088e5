package transport

import (
	"fmt"
	"hash/crc32"
	"time"

	"pipemare/internal/tensor"
)

// Spec is the handshake the leader announces in MsgHello: everything the
// worker must agree on for the distributed curves to stay bit-identical
// to the in-process ones. The worker rebuilds its follower from its own
// task and options, then verifies the spec — replica identity, topology,
// method, technique flags, commit mode, clocks, and a checksum over the
// leader's initial per-stage state — so a seed, partition or
// configuration mismatch between the processes fails the handshake
// instead of silently diverging the curves.
type Spec struct {
	Replica  int  // which follower this connection hosts (1 ≤ Replica < Replicas)
	Replicas int  // total replica count R
	Stages   int  // resolved pipeline stage count P
	Method   int  // core.Method the leader trains with
	T2       bool // whether Technique 2 state (δ, corrected) is part of stage state
	Sharded  bool // whether the optimizer commit is replica-sharded
	Step     int  // leader's optimizer step clock at handshake (0 for a fresh run)
	Epoch    int  // leader's epoch clock at handshake
	// Checksum is StateChecksum over the leader's initial per-stage
	// state; the worker's follower must hash identically.
	Checksum uint32
	// GroupCosts pins the leader's per-group partition costs so a
	// measured (profile) partition reproduces exactly on the worker.
	GroupCosts []float64
	// FT tells the worker the leader trains fault-tolerantly: followers
	// hold full optimizer moments (so stage state includes them and an
	// evicted member's shard survives on every peer).
	FT bool
	// Heartbeat is the worker→leader liveness interval during chunk
	// compute; 0 disables heartbeats.
	Heartbeat time.Duration
}

func (s Spec) encode() []byte {
	b := appendU32(nil, uint32(s.Replica))
	b = appendU32(b, uint32(s.Replicas))
	b = appendU32(b, uint32(s.Stages))
	b = appendU32(b, uint32(s.Method))
	b = appendBool(b, s.T2)
	b = appendBool(b, s.Sharded)
	b = appendU32(b, uint32(s.Step))
	b = appendU32(b, uint32(s.Epoch))
	b = appendU32(b, s.Checksum)
	b = appendU32(b, uint32(len(s.GroupCosts)))
	for _, c := range s.GroupCosts {
		b = appendF64(b, c)
	}
	b = appendBool(b, s.FT)
	b = appendU64(b, uint64(s.Heartbeat))
	return b
}

func decodeSpec(data []byte) (Spec, error) {
	c := &cursor{b: data}
	s := Spec{
		Replica:  c.i32(),
		Replicas: c.i32(),
		Stages:   c.i32(),
		Method:   c.i32(),
		T2:       c.boolean(),
		Sharded:  c.boolean(),
		Step:     c.i32(),
		Epoch:    c.i32(),
		Checksum: c.u32(),
	}
	n := c.count(8)
	if n > 0 {
		s.GroupCosts = make([]float64, n)
		for i := range s.GroupCosts {
			s.GroupCosts[i] = c.f64()
		}
	}
	s.FT = c.boolean()
	s.Heartbeat = time.Duration(c.u64())
	if err := c.done(); err != nil {
		return Spec{}, fmt.Errorf("bad hello: %w", err)
	}
	return s, nil
}

// StateSource is the per-stage state surface the checksum reads.
// replica.Member satisfies it.
type StateSource interface {
	StageState(stage int) []*tensor.Tensor
}

// StateChecksum hashes a member's per-stage state — dtype, shapes and
// raw float bits, stage by stage — with CRC-32 over exactly the bytes
// the wire's tensor-list encoding (appendTensors) produces. Leader and
// worker compute it over their respective initial states during the
// handshake; equality means the two processes built bitwise-identical
// replicas. The dtype tag is part of the hash, so a float32 leader
// paired with a float64 worker (or vice versa) fails the handshake
// before any state flows.
func StateChecksum(m StateSource, stages int) uint32 {
	crc := uint32(0)
	var buf []byte
	for st := 0; st < stages; st++ {
		buf = appendTensors(buf[:0], m.StageState(st))
		crc = crc32.Update(crc, crcTable, buf)
	}
	return crc
}
