// Package replicated implements the multi-replica data-parallel execution
// engine: R pipeline replicas — the leader trainer plus the follower
// trainers it owns (Config.Replicas, pipemare.WithReplicas) — each run a
// contiguous share of every minibatch's microbatches through their own
// inner engine (Reference or the concurrent stage-worker engine, so
// pipeline overlap composes with replication), concurrently. One shared
// optimizer step commits after a deterministic tree all-reduce of the
// followers' per-microbatch gradients, through the ZeRO-style owner
// protocol (replica.Group.Commit): every owner in the leader's commit plan
// steps its stage shard against its local shard of the optimizer state and
// the stepped weights all-gather back. By default (R > 1) every replica
// owns a shard; with the sharded step off the leader owns every stage, so
// the commit is leader-serial and the gather is the full broadcast.
//
// Training curves are bit-identical to a single-replica run of the same
// global microbatch set under the Reference engine, for any R, either
// inner engine and either commit mode: see package replica for the
// determinism argument (contiguous ordered chunks, one-add-per-element
// gradient export, all reduction arithmetic at the tree root in global
// microbatch order, copy-only scatter/gather around location-independent
// shard arithmetic). The equivalence is pinned by tests at the repository
// root.
package replicated

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
	"pipemare/internal/trace"
)

// Engine is the replicated data-parallel engine. It implements
// engine.Engine, engine.Lifecycle and replica.Aware. When its host is not
// a replica leader (or leads a single replica), it degenerates to its
// inner engine. An Engine instance must not be shared by concurrently
// running trainers.
type Engine struct {
	inner func() engine.Engine
	name  string

	h       engine.Host
	group   *replica.Group
	engines []engine.Engine
	running bool

	evictions  int   // members evicted over the engine's lifetime
	recoveryNs int64 // wall time spent recovering from those failures
	joins      int   // members admitted mid-run (joins and standby rejoins)
	demotions  int   // stragglers demoted to standby

	// standbys holds demoted stragglers: alive, out of the group, each
	// draining its late in-flight reply. The list survives Stop — a
	// standby's connection outlives the run that demoted it — and is
	// released only by CloseStandbys (Trainer.Close) or readmission.
	standbys []replica.Member

	// ctl is the leader's control track (nil when tracing is off).
	// Eviction and replay instants are emitted from Minibatch, which runs
	// on the trainer's run goroutine — the control track's single writer.
	ctl *trace.Track
}

// Option configures the engine.
type Option func(*Engine)

// WithInner sets the factory for the per-replica inner engines (default:
// the serial Reference engine). A factory — rather than an instance — is
// required because each replica's pipeline needs its own engine state.
func WithInner(f func() engine.Engine) Option {
	return func(e *Engine) { e.inner = f }
}

// New returns a replicated data-parallel engine.
func New(opts ...Option) *Engine {
	e := &Engine{inner: func() engine.Engine { return engine.NewReference() }}
	for _, o := range opts {
		o(e)
	}
	e.name = "replicated(" + e.inner().Name() + ")"
	return e
}

// Name identifies the engine and its inner engine.
func (e *Engine) Name() string { return e.name }

// DrivesReplicas marks the engine replica-aware (replica.Aware).
func (e *Engine) DrivesReplicas() {}

// Start builds the replica group for the host and starts one inner engine
// per replica.
func (e *Engine) Start(h engine.Host) {
	if e.running {
		if e.h == h {
			return
		}
		e.Stop()
	}
	e.h = h
	rec, rep := trace.FromCarrier(h)
	e.ctl = rec.Track(rep, trace.TidControl, "control")
	lead, ok := h.(replica.Leader)
	r := 1
	if ok {
		r = lead.Replicas()
	}
	if r == 1 {
		// Degenerate single-replica case: the inner engine drives the host
		// directly, commit included.
		e.group = nil
		e.engines = []engine.Engine{e.inner()}
		if lc, ok := e.engines[0].(engine.Lifecycle); ok {
			lc.Start(h)
		}
	} else {
		e.group = replica.NewGroup(lead)
		e.engines = make([]engine.Engine, r)
		for i := range e.engines {
			// Remote members run their chunks through the inner engine of
			// their own worker process; no local engine drives them.
			if c, ok := e.group.Member(i).(*replica.Compute); ok && c.Remote() {
				continue
			}
			e.engines[i] = e.inner()
			if lc, ok := e.engines[i].(engine.Lifecycle); ok {
				lc.Start(e.group.Member(i))
			}
		}
	}
	e.running = true
}

// Stop stops the inner engines and releases the replica group.
func (e *Engine) Stop() {
	if !e.running {
		return
	}
	for _, in := range e.engines {
		if lc, ok := in.(engine.Lifecycle); ok {
			lc.Stop()
		}
	}
	e.engines, e.group, e.h, e.ctl = nil, nil, nil, nil
	e.running = false
}

// Minibatch splits the minibatch across the replicas, runs the R chunk
// computations concurrently (each through its own inner engine), then
// tree-reduces the gradients into the leader and commits one shared
// optimizer step through the group's owner protocol.
//
// A fatal but evictable member failure (replica.MemberError — a dead
// remote follower that owns no stage, or any follower when the leader
// trains fault-tolerantly) does not abort the run: the member is
// evicted, the group re-chunks over the survivors, and the interrupted
// minibatch replays when its result was lost with the member. The
// replayed minibatch — and the whole curve after it — is bit-identical
// to a fresh (R−1)-replica run from the same state, because per-
// minibatch results are replica-count-invariant (package replica).
func (e *Engine) Minibatch(ctx context.Context, h engine.Host, micros [][]int) (float64, error) {
	if !e.running || e.h != h {
		e.Start(h)
	}
	if e.group == nil {
		return e.engines[0].Minibatch(ctx, h, micros)
	}
	var recoverStart time.Time
	for {
		loss, err := e.runOnce(ctx, micros)
		if err == nil && !recoverStart.IsZero() {
			e.recoveryNs += time.Since(recoverStart).Nanoseconds()
		}
		var se *replica.StragglerError
		if errors.As(err, &se) {
			// The member is alive but too slow: demote it to standby —
			// same group surgery as eviction, but the connection stays
			// open and the member drains its late reply so it can rejoin
			// through the admission path once it catches up.
			if recoverStart.IsZero() {
				recoverStart = time.Now()
			}
			e.demotions++
			e.ctl.Instant(trace.NameDemote, -1, -1, 0)
			e.demote(se.Replica)
			e.group.ResetGrads()
			e.ctl.Instant(trace.NameReplay, -1, -1, 0)
			continue
		}
		var me *replica.MemberError
		if !errors.As(err, &me) {
			return loss, err
		}
		if recoverStart.IsZero() {
			recoverStart = time.Now()
		}
		e.evictions++
		e.ctl.Instant(trace.NameEvict, -1, -1, 0)
		e.evict(me.Replica)
		if !me.Replay {
			// The commit completed before the failure surfaced (a member
			// that owns no stage died in the gather: every owner stepped
			// and every survivor imported independently) — the minibatch
			// stands, no replay.
			e.recoveryNs += time.Since(recoverStart).Nanoseconds()
			return loss, nil
		}
		e.group.ResetGrads()
		e.ctl.Instant(trace.NameReplay, -1, -1, 0)
	}
}

// runOnce drives one attempt at the minibatch over the current group.
func (e *Engine) runOnce(ctx context.Context, micros [][]int) (float64, error) {
	chunks := e.group.Begin(ctx, micros)
	r := e.group.Replicas()
	errs := make([]error, r)
	var wg sync.WaitGroup
	wg.Add(r)
	for i := 0; i < r; i++ {
		i := i
		go func() {
			defer wg.Done()
			host := e.group.Member(i)
			if c, ok := host.(*replica.Compute); ok && c.Remote() {
				// Remote replica: ship the chunk; the worker's inner engine
				// drives the pipeline and returns losses + gradient exports.
				errs[i] = c.Run(ctx, chunks[i])
				return
			}
			_, errs[i] = e.engines[i].Minibatch(ctx, host, chunks[i])
		}()
	}
	wg.Wait()

	// Every replica has drained and restored its master weights (the
	// inner-engine contract); follower stage accumulators are clean
	// because every follower backward slot exports-and-zeroes. A
	// divergence anywhere matches the serial run — the bad microbatch's
	// loss is computed from identical weights and samples there too — and
	// the leader's partial accumulation is dropped by the trainer. A
	// member failure is only evictable when no other member failed
	// non-evictably (a cancel or leader failure always aborts).
	var ctxErr error
	var straggleErr error
	evictPos, stragglePos := -1, -1
	for i, err := range errs {
		switch {
		case errors.Is(err, engine.ErrDiverged):
			return math.Inf(1), engine.ErrDiverged
		case err != nil && errors.Is(err, replica.ErrStraggler) && e.group.CanEvict(i, err):
			// Demotable, not evictable: the member did not latch a fault
			// — its late reply is still in flight. The eligibility
			// conditions are eviction's (never the leader, never an owner
			// without fault tolerance), because a demoted member leaves
			// the commit plan exactly like an evicted one.
			if stragglePos < 0 {
				stragglePos, straggleErr = i, err
			}
		case err != nil && e.group.CanEvict(i, err):
			if evictPos < 0 {
				evictPos = i
			}
		case err != nil && ctxErr == nil:
			ctxErr = err
		}
	}
	if ctxErr != nil {
		return 0, ctxErr
	}
	if stragglePos >= 0 {
		// Demotions are handled one per attempt: a second straggler's
		// RunChunk fails fast (ErrStraggler again, no I/O — the drain
		// guard) on the replay and demotes then. A concurrent evictable
		// fatal likewise resurfaces on the replay through its sticky
		// error and evicts then.
		return 0, &replica.StragglerError{Replica: stragglePos, Err: straggleErr}
	}
	if evictPos >= 0 {
		// The member died with its chunk: its losses and gradient exports
		// are gone, so the whole minibatch replays after eviction.
		return 0, &replica.MemberError{Replica: evictPos, Replay: true, Err: errs[evictPos]}
	}

	e.group.Reduce()
	loss := e.group.LossSum() / float64(len(micros))
	if err := e.group.Commit(len(micros)); err != nil {
		return loss, fmt.Errorf("replicated: commit: %w", err)
	}
	return loss, nil
}

// evict removes group member pos: its local inner engine (if any) stops,
// and the group closes the member, re-chunks, and rebuilds the leader's
// commit plan over the survivors.
func (e *Engine) evict(pos int) {
	e.dropEngine(pos)
	e.group.Evict(pos)
}

// dropEngine stops member pos's local inner engine (if any) and splices
// it out, in lockstep with the group's member list.
func (e *Engine) dropEngine(pos int) {
	if in := e.engines[pos]; in != nil {
		if lc, ok := in.(engine.Lifecycle); ok {
			lc.Stop()
		}
	}
	e.engines = append(e.engines[:pos], e.engines[pos+1:]...)
}

// FaultStats reports how many members this engine has evicted and the
// cumulative wall time spent recovering (eviction, gradient reset, and
// minibatch replays until training resumed).
func (e *Engine) FaultStats() (evictions int, recoveryNs int64) {
	return e.evictions, e.recoveryNs
}

// ElasticStats reports how many members this engine has admitted mid-run
// (joins plus standby rejoins) and how many stragglers it has demoted.
func (e *Engine) ElasticStats() (joins, demotions int) {
	return e.joins, e.demotions
}

// demote moves group member pos to the standby pool: same splice as
// evict, but the member is not closed — it keeps draining its late
// reply and can rejoin via Admit once Ready.
func (e *Engine) demote(pos int) {
	m, ok := e.group.Demote(pos)
	if !ok {
		return
	}
	e.dropEngine(pos)
	e.standbys = append(e.standbys, m)
}

// Admit grows the running group by one member at a minibatch boundary.
// The member must already hold the leader's full state (the trainer
// performs the handoff first) and must run its chunks out of process
// (replica.Runner) — no local inner engine drives it. The trainer calls
// Admit between minibatches, on the run goroutine, so no collective is
// in flight.
func (e *Engine) Admit(m replica.Member) error {
	if !e.running || e.group == nil {
		return errors.New("replicated: admit: no running replica group")
	}
	if _, ok := m.(replica.Runner); !ok {
		return fmt.Errorf("replicated: admit: member %T cannot run chunks remotely", m)
	}
	e.engines = append(e.engines, nil)
	e.group.Admit(m)
	e.joins++
	return nil
}

// TakeReadyStandbys removes and returns the demoted members that have
// finished draining and can rejoin. Standbys whose drain failed are
// closed and dropped — their connection is broken, so readmission is
// impossible.
func (e *Engine) TakeReadyStandbys() []replica.Member {
	var ready []replica.Member
	kept := e.standbys[:0]
	for _, m := range e.standbys {
		if er, ok := m.(replica.Erring); ok && er.Err() != nil {
			if cl, ok := m.(io.Closer); ok {
				cl.Close()
			}
			continue
		}
		if sb, ok := m.(replica.Standby); ok && sb.Ready() {
			ready = append(ready, m)
			continue
		}
		kept = append(kept, m)
	}
	e.standbys = kept
	if len(kept) == 0 {
		e.standbys = nil
	}
	return ready
}

// CloseStandbys closes every parked standby — the demoted members no
// longer reachable through the leader's follower list. Trainer.Close
// calls it so a run that ends with members still in standby leaks no
// connections.
func (e *Engine) CloseStandbys() error {
	var errs []error
	for _, m := range e.standbys {
		if cl, ok := m.(io.Closer); ok {
			if err := cl.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	e.standbys = nil
	return errors.Join(errs...)
}
