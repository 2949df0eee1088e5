package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"pipemare/internal/replica"
	"pipemare/internal/trace"
	"pipemare/internal/transport"
)

// Elastic membership: mid-run scale-up. AcceptJoins parks joining
// worker connections; run() drains the park at minibatch boundaries —
// the only points with no optimizer state in flight — and admits each
// joiner with a live state handoff (the same syncMember push a
// checkpoint restore uses), then grows the reduce tree and commit plan
// to R+1 through the replica group. The same boundary also readmits
// demoted stragglers whose late replies have drained. Because a member
// that has seen the handoff is indistinguishable from one that trained
// from the start, and the curves are replica-count invariant, a
// post-join curve is bit-identical to a fresh (R+1)-replica run from
// the handed-off state.

// welcomeTimeout bounds the admission round-trip with one parked joiner
// (Welcome send + JoinOK reply + the handoff collectives) so a joiner
// that dies while parked cannot stall the training loop.
const welcomeTimeout = 30 * time.Second

// pendingJoin is one parked joiner: its connection and the capability
// spec it announced.
type pendingJoin struct {
	conn transport.MsgConn
	spec transport.JoinSpec
}

// admitter is the engine surface the admission path drives — the
// replicated engine implements it: Admit grows the running replica
// group, TakeReadyStandbys returns demoted members whose late replies
// have drained and that are ready to rejoin.
type admitter interface {
	Admit(m replica.Member) error
	TakeReadyStandbys() []replica.Member
}

// standbyCloser releases standbys the engine still holds at Close.
type standbyCloser interface {
	CloseStandbys() error
}

// AcceptJoins starts accepting mid-run join connections on lis: each
// accepted connection's join request is read and parked until the next
// minibatch boundary, where the run loop admits (or rejects) it. The
// accept loop runs until lis closes or the trainer does; Close releases
// the listener and every parked connection. Requires Config.Elastic.
// Call before or during Run; joiners that dial while no Run is active
// stay parked until the next Run reaches a boundary.
func (t *Trainer) AcceptJoins(lis transport.Listener) error {
	if !t.cfg.Elastic {
		return fmt.Errorf("core: AcceptJoins needs the elastic option (Config.Elastic)")
	}
	if t.closed {
		return fmt.Errorf("core: AcceptJoins on a closed trainer")
	}
	t.joinMu.Lock()
	if t.joinCtx == nil {
		t.joinCtx, t.joinCancel = context.WithCancel(context.Background())
	}
	ctx := t.joinCtx
	t.joinLis = append(t.joinLis, lis)
	t.joinMu.Unlock()
	go t.acceptJoins(ctx, lis)
	return nil
}

// acceptJoins is the accept-park loop for one listener. It owns nothing
// but the connection between Accept and park, so a trainer Close (which
// closes the listener and cancels ctx) unwinds it promptly.
func (t *Trainer) acceptJoins(ctx context.Context, lis transport.Listener) {
	for {
		conn, err := lis.Accept(ctx)
		if err != nil {
			return
		}
		spec, err := transport.AcceptJoin(ctx, conn)
		if err != nil {
			conn.Close()
			continue
		}
		t.joinMu.Lock()
		closed := t.closed
		if !closed {
			t.pending = append(t.pending, pendingJoin{conn: conn, spec: spec})
		}
		t.joinMu.Unlock()
		if closed {
			conn.Close()
			return
		}
	}
}

// PendingJoins reports how many accepted joiners t has parked, waiting
// for a minibatch boundary to admit (or reject) them.
func PendingJoins(t *Trainer) int {
	t.joinMu.Lock()
	defer t.joinMu.Unlock()
	return len(t.pending)
}

// admitBoundary is run()'s per-minibatch membership hook: readmit
// drained standbys first (they already hold a connection and a built
// follower), then admit parked joiners. Both run on the run goroutine,
// so membership changes serialize against collectives and checkpoints
// by construction.
func (t *Trainer) admitBoundary() error {
	if err := t.rejoinStandbys(); err != nil {
		return err
	}
	return t.admitJoins()
}

// admitJoins drains the parked-joiner queue: for each joiner whose
// capabilities match (and whose requested join step has arrived), send
// the Welcome spec, perform the live state handoff, and grow the
// replica group. A capability mismatch rejects that joiner without
// failing the run; joiners ahead of their JoinAt step stay parked.
func (t *Trainer) admitJoins() error {
	t.joinMu.Lock()
	pend := t.pending
	t.pending = nil
	t.joinMu.Unlock()
	if len(pend) == 0 {
		return nil
	}
	var parked []pendingJoin
	for _, pj := range pend {
		if pj.spec.JoinAt > t.step {
			parked = append(parked, pj)
			continue
		}
		if err := t.admitOne(pj); err != nil {
			// The joiner was told why (RejectJoin) and its connection is
			// closed; the run itself continues over the current members.
			continue
		}
	}
	if len(parked) > 0 {
		t.joinMu.Lock()
		t.pending = append(parked, t.pending...)
		t.joinMu.Unlock()
	}
	return nil
}

// admitOne admits a single parked joiner end to end: capability check,
// Welcome, handoff, group growth. On any failure the connection is
// closed and an error returned; the caller decides whether the run
// cares.
func (t *Trainer) admitOne(pj pendingJoin) error {
	reject := func(format string, args ...any) error {
		err := fmt.Errorf(format, args...)
		ctx, cancel := context.WithTimeout(context.Background(), welcomeTimeout)
		transport.RejectJoin(ctx, pj.conn, err.Error())
		cancel()
		pj.conn.Close()
		return fmt.Errorf("core: rejecting joiner: %w", err)
	}
	adm, ok := t.eng.(admitter)
	if !ok {
		return reject("engine %q cannot grow its replica group", t.eng.Name())
	}
	if pj.spec.Stages != t.clock.P {
		return reject("joiner has %d stages, leader has %d", pj.spec.Stages, t.clock.P)
	}
	if pj.spec.Method != int(t.cfg.Method) {
		return reject("joiner trains method %d, leader method %d", pj.spec.Method, int(t.cfg.Method))
	}
	if pj.spec.T2 != (t.delta != nil) {
		return reject("joiner T2 %t, leader T2 %t", pj.spec.T2, t.delta != nil)
	}
	newR := len(t.followers) + 1 // the joiner's replica index
	if newR+1 > t.clock.N {
		return reject("%d replicas would exceed the %d microbatches per minibatch", newR+1, t.clock.N)
	}
	spec := transport.Spec{
		Replica: newR, Replicas: newR + 1, Stages: t.clock.P,
		Method: int(t.cfg.Method), T2: t.delta != nil, Sharded: t.sharded,
		Step: t.step, Epoch: t.epoch,
		// No state checksum: the joiner's initial state is irrelevant —
		// every tensor it will train from arrives in the handoff below.
		GroupCosts: t.groupCosts,
		FT:         t.cfg.FaultTolerant,
		Heartbeat:  t.cfg.Heartbeat,
	}
	ctx, cancel := context.WithTimeout(context.Background(), welcomeTimeout)
	m, err := transport.Welcome(ctx, pj.conn, spec)
	cancel()
	if err != nil {
		pj.conn.Close()
		return fmt.Errorf("core: welcoming joiner as replica %d: %w", newR, err)
	}
	m.SetTracer(t.cfg.Trace)
	if t.cfg.StragglerMisses > 0 {
		m.SetStragglerDeadline(t.cfg.StragglerDeadline, t.cfg.StragglerMisses)
	}
	if err := t.handoffAndAdmit(adm, m, newR); err != nil {
		m.Close()
		return err
	}
	t.ctlTrack().Instant(trace.NameJoin, -1, -1, 0)
	return nil
}

// handoffAndAdmit performs the timed live state handoff to an admitted
// member and grows the engine's replica group (which appends the member
// to the followers and rebuilds the commit plan through replica.Joiner).
// Shared by fresh joins and standby rejoins.
func (t *Trainer) handoffAndAdmit(adm admitter, m replica.Member, r int) error {
	start := time.Now()
	t0 := t.cfg.Trace.Now()
	if err := t.syncMember(m, r); err != nil {
		return fmt.Errorf("core: handoff to replica %d: %w", r, err)
	}
	t.ctlTrack().Span(trace.NameHandoff, t0, -1, -1, 0)
	t.handoffNs += time.Since(start).Nanoseconds()
	if err := adm.Admit(m); err != nil {
		return fmt.Errorf("core: admitting replica %d: %w", r, err)
	}
	t.joins++
	return nil
}

// rejoinStandbys readmits demoted stragglers whose late replies have
// drained, through the same handoff path a fresh joiner takes: their
// state is stale by however many steps they sat out, so everything is
// re-pushed. A standby that fails its handoff is closed and dropped.
func (t *Trainer) rejoinStandbys() error {
	adm, ok := t.eng.(admitter)
	if !ok {
		return nil
	}
	for _, m := range adm.TakeReadyStandbys() {
		if sb, ok := m.(replica.Standby); ok {
			sb.Rearm()
		}
		if err := t.handoffAndAdmit(adm, m, len(t.followers)+1); err != nil {
			if cl, ok := m.(io.Closer); ok {
				cl.Close()
			}
			continue
		}
		t.ctlTrack().Instant(trace.NameRejoin, -1, -1, 0)
	}
	return nil
}

// ElasticStats reports the elastic-membership counters: members
// admitted mid-run (fresh joins and standby rejoins), stragglers
// demoted to standby, and the cumulative wall time spent in state
// handoffs.
func (t *Trainer) ElasticStats() (joins, demotions int, handoffNs int64) {
	if es, ok := t.eng.(interface{ ElasticStats() (int, int) }); ok {
		_, demotions = es.ElasticStats()
	}
	return t.joins, demotions, t.handoffNs
}
