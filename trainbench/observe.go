package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/engine/replicated"
	"pipemare/internal/trace"
	"pipemare/internal/transport"
)

// The wrappers in this file time the calls the program makes into each
// layer from outside it: an engine.Engine wrapper times whole minibatches,
// an engine.Host wrapper times every per-stage slot and commit phase the
// engine drives, and a transport.Dialer/MsgConn wrapper times the wire.
// They are pure observers: each forwards every call unchanged, and a
// wrapped run trains the bit-identical curve of an unwrapped one (see
// observe_test.go).

// Host call kinds the probe accumulates time for.
const (
	kFwd     = iota // StageForward (recompute climbs included)
	kBwd            // StageBackward
	kInstall        // InstallForward/Backward/Recompute, Restore, BeginMicro, EndMicro
	kPrepare        // PrepareStage, ClipScale, ScaleStage
	kStep           // BeginStep, StepStage
	kFinish         // FinishStage
	nKinds
)

// maxStages bounds the per-stage busy counters.
const maxStages = 8

// probe accumulates what the wrappers of one trainer measure. Every
// wrapper of the trainer — the leader's, each local replica's and the
// in-process followers' — adds into the same probe, concurrently.
type probe struct {
	ns      [nKinds]atomic.Int64
	calls   [nKinds]atomic.Int64
	stageNs [maxStages]atomic.Int64

	sendNs, recvNs atomic.Int64
	msgs, bytes    atomic.Int64

	mu          sync.Mutex
	minibatchNs []int64
}

// add charges the time since t0 to kind and returns it.
func (p *probe) add(kind int, t0 time.Time) int64 {
	d := int64(time.Since(t0))
	p.ns[kind].Add(d)
	p.calls[kind].Add(1)
	return d
}

func (p *probe) addMinibatch(t0 time.Time) {
	d := int64(time.Since(t0))
	p.mu.Lock()
	p.minibatchNs = append(p.minibatchNs, d)
	p.mu.Unlock()
}

// probeTotals is a point-in-time copy of a probe, taken between epochs
// when no call is in flight; subtracting two gives the epochs between.
type probeTotals struct {
	ns, calls      [nKinds]int64
	stageNs        [maxStages]int64
	sendNs, recvNs int64
	msgs, bytes    int64
	minibatchNs    []int64
}

func (p *probe) totals() probeTotals {
	var t probeTotals
	for k := range t.ns {
		t.ns[k] = p.ns[k].Load()
		t.calls[k] = p.calls[k].Load()
	}
	for s := range t.stageNs {
		t.stageNs[s] = p.stageNs[s].Load()
	}
	t.sendNs, t.recvNs = p.sendNs.Load(), p.recvNs.Load()
	t.msgs, t.bytes = p.msgs.Load(), p.bytes.Load()
	p.mu.Lock()
	t.minibatchNs = append([]int64(nil), p.minibatchNs...)
	p.mu.Unlock()
	return t
}

// since returns the part of t accumulated after base.
func (t probeTotals) since(base probeTotals) probeTotals {
	d := probeTotals{
		sendNs: t.sendNs - base.sendNs, recvNs: t.recvNs - base.recvNs,
		msgs: t.msgs - base.msgs, bytes: t.bytes - base.bytes,
		minibatchNs: t.minibatchNs[len(base.minibatchNs):],
	}
	for k := range d.ns {
		d.ns[k] = t.ns[k] - base.ns[k]
		d.calls[k] = t.calls[k] - base.calls[k]
	}
	for s := range d.stageNs {
		d.stageNs[s] = t.stageNs[s] - base.stageNs[s]
	}
	return d
}

// timedEngine wraps an Engine: it times each Minibatch call (when outer)
// and hands the inner engine a timedHost, the same one for every call on
// the same underlying host — concurrent.Engine.Start compares host
// identity across Start and Minibatch.
type timedEngine struct {
	inner engine.Engine
	p     *probe
	outer bool // record minibatch walls (false for per-replica inner engines)

	mu    sync.Mutex
	hosts map[engine.Host]*timedHost
}

func newTimedEngine(inner engine.Engine, p *probe, outer bool) *timedEngine {
	return &timedEngine{inner: inner, p: p, outer: outer, hosts: map[engine.Host]*timedHost{}}
}

func (e *timedEngine) host(h engine.Host) *timedHost {
	e.mu.Lock()
	defer e.mu.Unlock()
	th, ok := e.hosts[h]
	if !ok {
		th = &timedHost{h: h, p: e.p}
		e.hosts[h] = th
	}
	return th
}

func (e *timedEngine) Name() string { return e.inner.Name() }

func (e *timedEngine) Minibatch(ctx context.Context, h engine.Host, micros [][]int) (float64, error) {
	th := e.host(h)
	t0 := time.Now()
	loss, err := e.inner.Minibatch(ctx, th, micros)
	if e.outer {
		e.p.addMinibatch(t0)
	}
	return loss, err
}

// Start and Stop forward engine.Lifecycle with the wrapped host.
func (e *timedEngine) Start(h engine.Host) {
	if lc, ok := e.inner.(engine.Lifecycle); ok {
		lc.Start(e.host(h))
	}
}

func (e *timedEngine) Stop() {
	if lc, ok := e.inner.(engine.Lifecycle); ok {
		lc.Stop()
	}
}

// timedReplicated wraps the replicated engine. The replicated engine needs
// its host to be the trainer itself (a replica.Leader), so this wrapper
// times whole minibatches only and passes the host through; every other
// method — Lifecycle, replica awareness, admission, stats — is the
// embedded engine's. The per-replica inner engines are timedEngines.
type timedReplicated struct {
	*replicated.Engine
	p *probe
}

func (e timedReplicated) Minibatch(ctx context.Context, h engine.Host, micros [][]int) (float64, error) {
	t0 := time.Now()
	loss, err := e.Engine.Minibatch(ctx, h, micros)
	e.p.addMinibatch(t0)
	return loss, err
}

// timedHost wraps an engine.Host, timing every per-stage call by kind and
// forwarding trace.Carrier so engines keep finding the run's recorder.
type timedHost struct {
	h engine.Host
	p *probe
}

var (
	_ engine.Host      = (*timedHost)(nil)
	_ trace.Carrier    = (*timedHost)(nil)
	_ engine.Lifecycle = (*timedEngine)(nil)
)

func (t *timedHost) Tracer() (*trace.Recorder, int) { return trace.FromCarrier(t.h) }

func (t *timedHost) Stages() int      { return t.h.Stages() }
func (t *timedHost) Async() bool      { return t.h.Async() }
func (t *timedHost) Recompute() bool  { return t.h.Recompute() }
func (t *timedHost) MicroBase() int   { return t.h.MicroBase() }
func (t *timedHost) Splittable() bool { return t.h.Splittable() }

func (t *timedHost) InstallForward(s, stage int) {
	t0 := time.Now()
	t.h.InstallForward(s, stage)
	t.p.add(kInstall, t0)
}

func (t *timedHost) InstallBackward(s, stage int) {
	t0 := time.Now()
	t.h.InstallBackward(s, stage)
	t.p.add(kInstall, t0)
}

func (t *timedHost) InstallRecompute(s, stage int) {
	t0 := time.Now()
	t.h.InstallRecompute(s, stage)
	t.p.add(kInstall, t0)
}

func (t *timedHost) Restore(stage int) {
	t0 := time.Now()
	t.h.Restore(stage)
	t.p.add(kInstall, t0)
}

func (t *timedHost) BeginMicro(s int, mb []int) {
	t0 := time.Now()
	t.h.BeginMicro(s, mb)
	t.p.add(kInstall, t0)
}

func (t *timedHost) StageForward(s, stage int) float64 {
	t0 := time.Now()
	loss := t.h.StageForward(s, stage)
	t.p.stageNs[stage].Add(t.p.add(kFwd, t0))
	return loss
}

func (t *timedHost) StageBackward(s, stage int) {
	t0 := time.Now()
	t.h.StageBackward(s, stage)
	t.p.stageNs[stage].Add(t.p.add(kBwd, t0))
}

func (t *timedHost) EndMicro(s int) {
	t0 := time.Now()
	t.h.EndMicro(s)
	t.p.add(kInstall, t0)
}

func (t *timedHost) BadLoss(loss float64) bool { return t.h.BadLoss(loss) }

func (t *timedHost) PrepareStage(stage, nMicro int) float64 {
	t0 := time.Now()
	sq := t.h.PrepareStage(stage, nMicro)
	t.p.add(kPrepare, t0)
	return sq
}

func (t *timedHost) ClipScale(sumSq float64) float64 {
	t0 := time.Now()
	c := t.h.ClipScale(sumSq)
	t.p.add(kPrepare, t0)
	return c
}

func (t *timedHost) ScaleStage(stage int, scale float64) {
	t0 := time.Now()
	t.h.ScaleStage(stage, scale)
	t.p.add(kPrepare, t0)
}

func (t *timedHost) BeginStep() {
	t0 := time.Now()
	t.h.BeginStep()
	t.p.add(kStep, t0)
}

func (t *timedHost) StepStage(stage int) {
	t0 := time.Now()
	t.h.StepStage(stage)
	t.p.add(kStep, t0)
}

func (t *timedHost) FinishStage(stage int) {
	t0 := time.Now()
	t.h.FinishStage(stage)
	t.p.add(kFinish, t0)
}

// timedDialer wraps a transport.Dialer so every connection it makes is a
// timedConn.
type timedDialer struct {
	d transport.Dialer
	p *probe
}

func (d timedDialer) Dial(ctx context.Context) (transport.MsgConn, error) {
	c, err := d.d.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return timedConn{MsgConn: c, p: d.p}, nil
}

// timedConn times Send and Recv and counts messages and payload bytes;
// Close and LocalAddr are the embedded connection's.
type timedConn struct {
	transport.MsgConn
	p *probe
}

func (c timedConn) Send(ctx context.Context, m transport.Msg) error {
	t0 := time.Now()
	err := c.MsgConn.Send(ctx, m)
	c.p.sendNs.Add(int64(time.Since(t0)))
	c.p.msgs.Add(1)
	c.p.bytes.Add(int64(len(m.Data)))
	return err
}

func (c timedConn) Recv(ctx context.Context) (transport.Msg, error) {
	t0 := time.Now()
	m, err := c.MsgConn.Recv(ctx)
	c.p.recvNs.Add(int64(time.Since(t0)))
	if err == nil {
		c.p.msgs.Add(1)
		c.p.bytes.Add(int64(len(m.Data)))
	}
	return m, err
}
