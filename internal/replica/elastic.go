// Elastic membership: mid-run admission and straggler demotion.
//
// Eviction (faults.go) lets a group shrink; this file lets it grow
// again. Admit appends a fully state-synced member and rebuilds the
// reduce tree and commit plan *upward* over R+1 members — the exact
// mirror of Evict — and Demote removes a slow-but-alive member without
// closing its connection, parking it as a standby that can later rejoin
// through the same Admit path. Determinism survives both directions for
// the same reason it survives eviction: the per-minibatch curve is
// replica-count-invariant (contiguous chunk re-split, all reduce
// arithmetic at the tree root in global microbatch order,
// location-independent commit arithmetic), so the post-join curve is
// bit-identical to a fresh (R+1)-replica run from the handoff state.
package replica

import (
	"errors"
	"fmt"

	"pipemare/internal/trace"
)

// ErrStraggler marks a member failure caused by a missed collective
// deadline rather than a broken transport: the member is alive (its
// heartbeats flow, its reply will still arrive) but too slow to keep in
// the reduce tree. The replicated engine demotes such members to
// standby instead of evicting them.
var ErrStraggler = errors.New("replica: collective deadline missed")

// StragglerError reports that member Replica missed its per-collective
// deadline K consecutive times during the interrupted minibatch. The
// replicated engine catches it, demotes the member to standby, and
// replays the minibatch over the survivors.
type StragglerError struct {
	Replica int // the straggler's current group position
	Err     error
}

func (e *StragglerError) Error() string {
	return fmt.Sprintf("replica %d straggling (demotable): %v", e.Replica, e.Err)
}

func (e *StragglerError) Unwrap() error { return e.Err }

// Joiner is the leader-side admission surface: append a new follower
// after the current tail and rebuild the commit plan over R+1 members —
// the inverse of Evictor. The trainer's host satisfies it.
type Joiner interface {
	JoinFollower(m Member)
}

// Standby is implemented by members that can sit out of the group after
// a demotion and later rejoin: Ready reports that the member has
// finished (and discarded) its late in-flight work and is drained,
// and Rearm resets its straggler accounting before readmission.
type Standby interface {
	Ready() bool
	Rearm()
}

// Admit appends a new member to the group at position R (the tail),
// growing the reduce tree, and rebuilds the leader's commit plan over
// R+1 members. The member must already hold the leader's full state
// (the caller performs the handoff before admission); Admit itself is
// pure membership bookkeeping, mirroring Evict.
func (g *Group) Admit(m Member) {
	pos := len(g.members)
	g.members = append(g.members, newCompute(m, false))
	if g.ctracks != nil {
		g.ctracks = append(g.ctracks, g.rec.Track(pos, trace.TidCollectives, "collectives"))
	}
	if j, ok := g.lead.(Joiner); ok {
		j.JoinFollower(m)
	}
	g.plan = g.lead.CommitShards()
}

// Demote removes member pos from the group — the leader drops the
// follower, the reduce tree and commit plan rebuild over the survivors,
// positions above pos shift down — but leaves the member's connection
// open and returns it, so the caller can park it as a standby and readmit
// it through Admit once it has caught up. Evict is Demote plus Close.
func (g *Group) Demote(pos int) (Member, bool) {
	if pos <= 0 || pos >= len(g.members) {
		return nil, false
	}
	m := g.members[pos].member
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
	return m, true
}
