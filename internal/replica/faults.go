// Fault tolerance: deterministic member eviction.
//
// A fatal member failure mid-minibatch would otherwise abort the run.
// When the failure is evictable (see Group.CanEvict), the replicated
// engine instead removes the member from the group, the leader rebuilds
// its commit plan over the survivors, and — when the minibatch's result
// was lost with the member — the minibatch replays over the smaller
// group. Determinism survives eviction because the per-minibatch curve
// is replica-count-invariant: the reduce is a pure left fold in global
// microbatch order for any R, chunks re-split contiguously over the
// survivors, and the commit arithmetic is location-independent. The
// post-eviction curve is therefore bit-identical to a fresh (R−1)-
// replica run from the same state — the invariant the equivalence suite
// pins.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"

	"pipemare/internal/tensor"
)

// MemberError reports a fatal but evictable failure of one group member.
// The replicated engine catches it, evicts the member, and — when Replay
// is set — reruns the interrupted minibatch over the survivors.
type MemberError struct {
	Replica int  // the failed member's current group position
	Replay  bool // whether the interrupted minibatch's result was lost
	Err     error
}

func (e *MemberError) Error() string {
	return fmt.Sprintf("replica %d failed (evictable): %v", e.Replica, e.Err)
}

func (e *MemberError) Unwrap() error { return e.Err }

// FaultTolerer is implemented by leaders that train fault-tolerantly:
// every follower holds full optimizer moments (mirrored each commit), so
// an evicted owner's shard state survives on its peers and the sharded
// commit can rebuild over R−1 members. Serial-commit groups are always
// evictable; sharded groups only when the leader reports fault
// tolerance.
type FaultTolerer interface {
	FaultTolerant() bool
}

// Evictor is the leader-side eviction surface: drop follower r (1-based
// group position) and rebuild the commit plan over the survivors. The
// trainer's host satisfies it.
type Evictor interface {
	EvictFollower(r int)
}

// CanEvict reports whether member pos's failure err may be handled by
// eviction instead of aborting the run. The leader (pos 0) is never
// evictable, cancellation is the caller's intent rather than a fault,
// a member without sticky-error support gives no clean failure point,
// and a sharded commit without fault tolerance has lost the dead
// owner's moment shard.
func (g *Group) CanEvict(pos int, err error) bool {
	if pos <= 0 || pos >= len(g.members) || err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if _, ok := g.members[pos].member.(Erring); !ok {
		return false
	}
	return !g.sharded || g.ft
}

// Evict removes member pos from the group: the member's connection is
// closed (best effort), the leader drops the follower and rebuilds its
// commit plan over the survivors, and the group's reduce tree and commit
// mode shrink accordingly. Positions above pos shift down by one, in
// lockstep with the leader's follower list.
func (g *Group) Evict(pos int) {
	if pos <= 0 || pos >= len(g.members) {
		return
	}
	if cl, ok := g.members[pos].member.(io.Closer); ok {
		cl.Close()
	}
	g.members = append(g.members[:pos], g.members[pos+1:]...)
	// The collectives tracks splice in lockstep so survivors keep writing
	// the track created under their original replica index.
	if g.ctracks != nil {
		g.ctracks = append(g.ctracks[:pos], g.ctracks[pos+1:]...)
	}
	if ev, ok := g.lead.(Evictor); ok {
		ev.EvictFollower(pos)
	}
	g.plan = g.lead.CommitShards()
	g.sharded = len(g.members) > 1 && g.lead.ShardedStep()
}

// ResetGrads returns every member's gradient accumulators to zero before
// a minibatch replays. The leader needs it because its own chunk
// accumulates in place (a replay would double-count), and a surviving
// sharded-commit owner needs it because an interrupted scatter may have
// parked reduced gradients in its accumulators.
func (g *Group) ResetGrads() {
	p := g.lead.Stages()
	if g.scatter == nil {
		g.scatter = make([][]*tensor.Tensor, p)
		g.sumSqs = make([]float64, p)
	}
	for st := 0; st < p; st++ {
		g.scatter[st] = g.lead.TakeStageGrads(st, g.scatter[st])
		for _, t := range g.scatter[st] {
			t.Zero()
		}
		for _, m := range g.members[1:] {
			m.member.SetStageGrads(st, g.scatter[st])
		}
	}
}

// firstFault returns the position and latched error of the first failed
// member, or (-1, nil).
func (g *Group) firstFault() (int, error) {
	for i, c := range g.members {
		if e, ok := c.member.(Erring); ok {
			if err := e.Err(); err != nil {
				return i, err
			}
		}
	}
	return -1, nil
}

// classify turns a member failure into either a MemberError (evictable,
// with the given replay requirement) or a plain wrapped error that
// aborts the run.
func (g *Group) classify(pos int, err error, replay bool) error {
	if g.CanEvict(pos, err) {
		return &MemberError{Replica: pos, Replay: replay, Err: err}
	}
	return fmt.Errorf("replica %d: %w", pos, err)
}
