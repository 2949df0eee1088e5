package transport

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
)

// Builder constructs (or verifies) the worker's local follower member
// for the spec the leader announced — typically core.NewFollower over a
// task the worker rebuilt from the same seed and options as the leader.
// It runs after MsgHello, so a spec-dependent configuration (replica id,
// replica count, commit mode, pinned partition costs) needs no worker
// flags.
type Builder func(spec Spec) (replica.Local, error)

// Serve accepts one leader connection on lis and serves it until the
// leader says goodbye, the connection drops, or ctx ends. inner is the
// engine that drives the follower's microbatch chunks (nil means the
// serial Reference engine) — the worker-process counterpart of the
// replicated engine's per-replica inner engines.
func Serve(ctx context.Context, lis Listener, build Builder, inner engine.Engine) error {
	conn, err := lis.Accept(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	return ServeConn(ctx, conn, build, inner)
}

// ServeConn serves one established leader connection (see Serve).
func ServeConn(ctx context.Context, conn MsgConn, build Builder, inner engine.Engine) error {
	if inner == nil {
		inner = engine.NewReference()
	}
	s := &server{conn: conn, inner: inner}
	member, err := s.handshake(ctx, build)
	if err != nil {
		return err
	}
	return s.serve(ctx, member)
}

// serve runs the post-handshake session body — shared by the MsgHello
// path (ServeConn) and the join path (ServeJoin): wrap the member for
// chunk execution, start the inner engine's lifecycle, and enter the
// request loop.
func (s *server) serve(ctx context.Context, member replica.Local) error {
	s.member = member
	s.comp = replica.NewCompute(member)
	if lc, ok := s.inner.(engine.Lifecycle); ok {
		lc.Start(s.comp)
		defer lc.Stop()
	}
	return s.loop(ctx)
}

type server struct {
	conn   MsgConn
	inner  engine.Engine
	member replica.Local
	comp   *replica.Compute

	replica uint16
	hb      time.Duration // heartbeat interval from the leader's spec (0 = off)
	micros  [][]int       // RunChunk decode buffer
	scratch []byte        // reply encode buffer
}

func (s *server) reply(ctx context.Context, m Msg) error {
	m.Replica = s.replica
	return s.conn.Send(ctx, m)
}

func (s *server) replyErr(ctx context.Context, code uint32, text string) error {
	data := appendU32(nil, code)
	data = append(data, text...)
	return s.reply(ctx, Msg{Type: MsgErr, Stage: -1, Data: data})
}

// handshake reads MsgHello, builds the follower from the spec, verifies
// topology and the initial-state checksum, aligns the clocks, and
// acknowledges. A mismatch is reported to the leader and returned.
func (s *server) handshake(ctx context.Context, build Builder) (replica.Local, error) {
	req, err := s.conn.Recv(ctx)
	if err != nil {
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	if req.Type != MsgHello {
		return nil, fmt.Errorf("transport: handshake: first message type %d, want hello", req.Type)
	}
	s.replica = req.Replica
	spec, err := decodeSpec(req.Data)
	if err != nil {
		s.replyErr(ctx, errGeneric, err.Error())
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	reject := func(format string, args ...any) (replica.Local, error) {
		err := fmt.Errorf(format, args...)
		s.replyErr(ctx, errGeneric, err.Error())
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	if spec.Replica < 1 || spec.Replica >= spec.Replicas {
		return reject("replica %d out of range for %d replicas", spec.Replica, spec.Replicas)
	}
	s.hb = spec.Heartbeat
	member, err := build(spec)
	if err != nil {
		return reject("building follower: %w", err)
	}
	if got := member.Stages(); got != spec.Stages {
		return reject("follower has %d stages, leader has %d", got, spec.Stages)
	}
	if got := StateChecksum(member, spec.Stages); got != spec.Checksum {
		return reject("initial state checksum %#08x differs from leader's %#08x (seed, task or partition mismatch)", got, spec.Checksum)
	}
	member.SetStep(spec.Step)
	member.SetEpoch(spec.Epoch)
	if err := s.reply(ctx, Msg{Type: MsgHelloOK, Stage: -1}); err != nil {
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	return member, nil
}

// loop is the request/response serve loop. Member operations run under a
// panic guard: a malformed message (bad stage index, wrong tensor count)
// becomes an error reply and a clean return, never a worker crash.
func (s *server) loop(ctx context.Context) error {
	for {
		req, err := s.conn.Recv(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			return fmt.Errorf("transport: serve: %w", err)
		}
		if req.Type == MsgBye {
			return nil
		}
		resp, fatal := s.dispatch(ctx, req)
		if fatal != nil {
			s.replyErr(ctx, errGeneric, fatal.Error())
			return fmt.Errorf("transport: serve: %w", fatal)
		}
		if err := s.reply(ctx, resp); err != nil {
			return fmt.Errorf("transport: serve: %w", err)
		}
	}
}

// dispatch handles one request, returning the reply or a fatal error.
func (s *server) dispatch(ctx context.Context, req Msg) (resp Msg, fatal error) {
	defer func() {
		if r := recover(); r != nil {
			fatal = fmt.Errorf("request type %d: %v", req.Type, r)
		}
	}()
	ack := Msg{Type: MsgAck, Stage: req.Stage}
	stage := int(req.Stage)
	c := &cursor{b: req.Data}
	switch req.Type {
	case MsgRunChunk:
		return s.runChunk(ctx, c)
	case MsgSetGrads:
		bufs := c.tensorsInto(nil)
		if err := c.done(); err != nil {
			return Msg{}, err
		}
		s.member.SetStageGrads(stage, bufs)
		return ack, nil
	case MsgPrepare:
		nMicro := c.i32()
		if err := c.done(); err != nil {
			return Msg{}, err
		}
		sumSq := s.member.PrepareStage(stage, nMicro)
		return Msg{Type: MsgPrepared, Stage: req.Stage, Data: appendF64(s.scratch[:0], sumSq)}, nil
	case MsgBeginStep:
		s.member.BeginStep()
		return ack, nil
	case MsgScale:
		scale := c.f64()
		if err := c.done(); err != nil {
			return Msg{}, err
		}
		s.member.ScaleStage(stage, scale)
		return ack, nil
	case MsgStep:
		s.member.StepStage(stage)
		return ack, nil
	case MsgFinish:
		s.member.FinishStage(stage)
		return ack, nil
	case MsgGetState:
		state := s.member.StageState(stage)
		return Msg{Type: MsgState, Stage: req.Stage, Data: appendTensors(s.scratch[:0], state)}, nil
	case MsgSetState:
		bufs := c.tensorsInto(nil)
		if err := c.done(); err != nil {
			return Msg{}, err
		}
		s.member.ImportStageState(stage, bufs)
		return ack, nil
	case MsgSetRing:
		base, snaps := c.ring()
		if err := c.done(); err != nil {
			return Msg{}, err
		}
		s.member.RestoreVersions(stage, base, snaps)
		return ack, nil
	case MsgSyncEpoch:
		epoch := c.i32()
		if err := c.done(); err != nil {
			return Msg{}, err
		}
		s.member.SetEpoch(epoch)
		return ack, nil
	case MsgSync:
		step := c.i32()
		if err := c.done(); err != nil {
			return Msg{}, err
		}
		s.member.SetStep(step)
		return ack, nil
	}
	return Msg{}, fmt.Errorf("unknown request type %d", req.Type)
}

// runChunk decodes a chunk request, drives it through the inner engine
// against the follower's compute wrapper, and encodes the losses and
// exported gradients back. A diverged chunk replies errDiverged — a
// normal outcome the leader maps back to engine.ErrDiverged — without
// ending the session.
func (s *server) runChunk(ctx context.Context, c *cursor) (Msg, error) {
	start := c.i32()
	async := c.boolean()
	k := c.count(4)
	if cap(s.micros) < k {
		s.micros = make([][]int, k)
	}
	micros := s.micros[:k]
	for i := range micros {
		n := c.count(4)
		if cap(micros[i]) < n {
			micros[i] = make([]int, n)
		}
		micros[i] = micros[i][:n]
		for j := range micros[i] {
			micros[i][j] = c.i32()
		}
	}
	if err := c.done(); err != nil {
		return Msg{}, err
	}
	s.comp.BeginChunk(start, k, async)
	// While the chunk computes — the one long-running request — a pinger
	// streams MsgPing so the leader can tell "slow" from "hung". It is
	// stopped and joined before the reply is encoded: Conn is not safe
	// for concurrent use, so the pinger must never overlap another Send.
	stopPing := func() {}
	if s.hb > 0 {
		pctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go s.ping(pctx, done)
		stopPing = func() { cancel(); <-done }
	}
	_, err := s.inner.Minibatch(ctx, s.comp, micros)
	stopPing()
	if err != nil {
		if errors.Is(err, engine.ErrDiverged) {
			data := appendU32(s.scratch[:0], errDiverged)
			return Msg{Type: MsgErr, Stage: -1, Data: data}, nil
		}
		return Msg{}, fmt.Errorf("chunk failed: %w", err)
	}
	losses := s.comp.Losses()
	grads := s.comp.Grads()
	size := 4 + 8*len(losses) + 4 + 4 // losses, then the micro and stage counts
	for _, micro := range grads {
		for _, stage := range micro {
			size += tensorsSize(stage)
		}
	}
	b := appendU32(grow(s.scratch[:0], size), uint32(len(losses)))
	for _, l := range losses {
		b = appendF64(b, l)
	}
	b = appendU32(b, uint32(len(grads)))
	b = appendU32(b, uint32(s.member.Stages()))
	for _, micro := range grads {
		for _, stage := range micro {
			b = appendTensors(b, stage)
		}
	}
	s.scratch = b
	return Msg{Type: MsgChunkDone, Stage: -1, Data: b}, nil
}

// ping streams heartbeats at the spec'd interval until ctx ends.
func (s *server) ping(ctx context.Context, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.hb)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.conn.Send(ctx, Msg{Type: MsgPing, Replica: s.replica, Stage: -1}); err != nil {
				return
			}
		}
	}
}
