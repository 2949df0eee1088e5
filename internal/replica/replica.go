// Package replica implements the coordination layer for multi-replica
// data-parallel training: R pipeline replicas (each a full trainer weight
// partition driven by its own inner execution engine) split a minibatch's
// microbatches between them, and a deterministic tree all-reduce folds the
// per-microbatch gradients into the leader replica before one shared
// optimizer step — the PipeDream-style hybrid of pipeline and data
// parallelism. The step commits through one owner protocol (Group.Commit,
// ZeRO / PipeDream-2BW style): the leader's engine.CommitPlan assigns each
// stage to a replica owner, the leader's reduced gradients scatter to
// their owners, every owner steps its shard against its local shard of
// the optimizer state, and the stepped weights all-gather back to every
// other replica. A plan with R owners spreads the commit tail across the
// replicas and leaves no redundant optimizer state on followers; a plan
// with one owner is the leader-serial commit, whose gather is the full
// state broadcast.
//
// # Determinism
//
// The reduction is bit-identical to a single-replica run over the same
// global microbatch set, for any R. Three properties make that possible:
//
//  1. Chunks are contiguous and ordered: replica r computes global
//     microbatches [start_r, start_r+n_r) with start_{r+1} = start_r+n_r,
//     so concatenating the replicas' per-microbatch gradient lists in
//     replica order reproduces the global microbatch order.
//  2. Followers export one gradient per (microbatch, stage), computed
//     into a zeroed accumulator. By the nn accumulation contract (see
//     nn.Param.Grad), a layer adds its whole per-call contribution with
//     exactly one add per element, so the exported value is bitwise the
//     same scalar a serial run would have added to its running sum.
//  3. The all-reduce gathers the followers' ordered lists up a binary
//     tree (a communication schedule with no arithmetic) and performs
//     every floating-point add at the root: the leader — whose own chunk
//     is the fold's prefix, accumulated in place — folds the gathered
//     gradients in global microbatch order, one add per element.
//
// The fold order is therefore a pure left fold over microbatches 0..N−1
// regardless of R or tree shape — exactly the serial engine's order.
package replica

import (
	"context"
	"fmt"
	"sync"

	"pipemare/internal/engine"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
)

// Member is one replica's commit and exchange surface: what the group
// drives on every replica, in this process or across the wire
// (transport.RemoteMember). It is implemented by internal/core.Trainer's
// host.
type Member interface {
	// Stages returns P.
	Stages() int

	// The commit phases of engine.Host, which a member runs for the
	// stages it owns in Group.Commit.
	PrepareStage(stage, nMicro int) float64
	ScaleStage(stage int, scale float64)
	BeginStep()
	StepStage(stage int)
	FinishStage(stage int)

	// SetStageGrads overwrites the stage's gradient accumulators with
	// bufs (a pure copy) — the scatter half of the commit.
	SetStageGrads(stage int, bufs []*tensor.Tensor)
	// StageState returns the stage's live post-step state tensors
	// (masters, then T2 δ and corrected when enabled) in a fixed layout;
	// the returned tensors are read-only for the gather.
	StageState(stage int) []*tensor.Tensor
	// ImportStageState copies a stage's post-step state from another
	// replica's StageState layout and pushes the replica's next weight
	// version for that stage. It is the one way stage state enters a
	// replica: the commit's gather and the restore and join handoffs all
	// go through it.
	ImportStageState(stage int, src []*tensor.Tensor)
	// SetEpoch aligns the epoch clock so the commit-phase learning rates
	// (T1/T3 phase) agree on every owner.
	SetEpoch(epoch int)
	// SetStep aligns the optimizer step clock (and the optimizer's own
	// update counter when its full moment state is resident).
	SetStep(step int)
	// RestoreVersions replaces a stage's weight-version ring wholesale:
	// base is the oldest version number, snaps the versions oldest to
	// newest. Restoring the ring, not just the latest weights, keeps
	// historical-version installs bit-identical after a restore or join.
	RestoreVersions(stage, base int, snaps [][]*tensor.Tensor)
}

// Local is a member whose pipeline runs in this process: the engine.Host
// an inner engine drives through Compute, plus the per-stage gradient
// export followers make after each backward slot.
type Local interface {
	Member
	engine.Host
	// TakeStageGrads moves the stage's accumulated parameter gradients
	// into bufs (allocating buffers when bufs is nil) and zeroes the
	// stage's accumulators. It must only be called from the goroutine
	// that owns the stage's slots.
	TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor
}

// Leader extends Local for the replica that owns the followers (the
// trainer the user built with WithReplicas(R)).
type Leader interface {
	Local
	// FoldStageGrads adds previously exported buffers into the stage's
	// accumulators with exactly one add per element.
	FoldStageGrads(stage int, bufs []*tensor.Tensor)
	// Replicas returns the total replica count R (1 when replication is
	// off).
	Replicas() int
	// Follower returns follower r's member surface, 1 ≤ r < Replicas().
	Follower(r int) Member
	// CommitShards returns the stage→replica owner plan of the commit —
	// the one place that decides who steps which stage, and the plan the
	// leader allocated its followers' optimizer moment shards from, so
	// commit ownership and state ownership cannot drift apart. It has one
	// owner (the leader) when the step is not sharded.
	CommitShards() engine.CommitPlan
	// Step returns the leader's optimizer step clock.
	Step() int
	// Epoch returns the leader's epoch clock.
	Epoch() int
}

// Aware marks execution engines that understand the replica surface and
// drive all R replicas of a Leader host. The trainer refuses a
// non-replica-aware engine when replication is configured, because such
// an engine would silently train only the leader.
type Aware interface {
	DrivesReplicas()
}

// Runner is implemented by members whose microbatch chunk executes out
// of process (transport.RemoteMember): the replicated engine ships the
// whole chunk in one call — the worker drives it through its own inner
// engine — instead of driving the member's pipeline slots locally. The
// returned losses and per-(microbatch, stage) gradient exports are
// exactly what a local follower's Compute wrapper would have captured.
type Runner interface {
	RunChunk(ctx context.Context, start int, async bool, micros [][]int) (losses []float64, grads [][][]*tensor.Tensor, err error)
}

// Erring is implemented by members whose collective operations can fail
// after the fact — remote members latch the first transport error and
// fail every later operation fast. Group checks it after each collective
// phase, so an I/O failure surfaces as a wrapped error from Commit
// instead of a hang or a corrupted step.
type Erring interface {
	Err() error
}

// ContextBinder is implemented by members whose collective operations
// block on I/O: Group binds the minibatch context at Begin so a cancel
// mid-collective unwinds every blocked read and write.
type ContextBinder interface {
	BindContext(ctx context.Context)
}

// Group coordinates one leader and its followers for a replicated
// execution engine: it owns the per-replica compute wrappers, splits each
// minibatch into contiguous per-replica chunks, and runs the reduce and
// the owner-protocol commit.
type Group struct {
	lead    Leader
	members []*Compute        // members[0] wraps the leader
	plan    engine.CommitPlan // stage→replica owners (the leader's CommitShards)
	ft      bool              // leader trains fault-tolerantly (full moments everywhere)

	scatter [][]*tensor.Tensor // per-stage staging for the grad scatter
	sumSqs  []float64          // per-stage clip-norm partials

	// rec and ctracks carry the leader's trace recorder (nil when tracing
	// is off). ctracks[i] is member i's collectives track: the orchestrator
	// goroutine writes ctracks[0] (reduce, scatter, gather) and each
	// eachMember goroutine writes only its own member's track,
	// with the phases' WaitGroup barriers ordering the handoffs.
	rec     *trace.Recorder
	ctracks []*trace.Track
}

// NewGroup builds the coordination group for a leader and its followers.
func NewGroup(lead Leader) *Group {
	r := lead.Replicas()
	g := &Group{lead: lead, members: make([]*Compute, r)}
	g.members[0] = newCompute(lead, true)
	for i := 1; i < r; i++ {
		g.members[i] = newCompute(lead.Follower(i), false)
	}
	g.plan = lead.CommitShards()
	if ftl, ok := lead.(FaultTolerer); ok {
		g.ft = ftl.FaultTolerant()
	}
	g.rec, _ = trace.FromCarrier(lead)
	g.ctracks = make([]*trace.Track, r)
	for i := range g.ctracks {
		g.ctracks[i] = g.rec.Track(i, trace.TidCollectives, "collectives")
	}
	return g
}

// tensorsBytes sums the payload size a tensor list moves (element count
// times the dtype's width) — called only when tracing is on.
func tensorsBytes(ts []*tensor.Tensor) int64 {
	var n int64
	for _, t := range ts {
		n += int64(t.Bytes())
	}
	return n
}

// Replicas returns R.
func (g *Group) Replicas() int { return len(g.members) }

// Member returns replica r's compute wrapper — the engine.Host an inner
// engine drives for that replica's share of a minibatch.
func (g *Group) Member(r int) engine.Host { return g.members[r] }

// Begin prepares the group for one minibatch: it splits the N microbatch
// index sets into R contiguous, ordered chunks (sizes differing by at
// most one), snapshots the leader's epoch phase (async) and microbatch
// base, resets the per-replica loss and gradient staging, and binds ctx
// into remote members so cancellation reaches their blocking I/O. It
// returns the chunk for each replica.
func (g *Group) Begin(ctx context.Context, micros [][]int) [][][]int {
	r := len(g.members)
	n := len(micros)
	base := g.lead.MicroBase()
	async := g.lead.Async()
	chunks := make([][][]int, r)
	lo := 0
	for i := 0; i < r; i++ {
		sz := n / r
		if i < n%r {
			sz++
		}
		chunks[i] = micros[lo : lo+sz]
		g.members[i].begin(base+lo, sz, async)
		if cb, ok := g.members[i].member.(ContextBinder); ok {
			cb.BindContext(ctx)
		}
		lo += sz
	}
	return chunks
}

// Err returns the first latched member failure (replica I/O errors are
// sticky), wrapped with the replica index, or nil.
func (g *Group) Err() error {
	for i, c := range g.members {
		if e, ok := c.member.(Erring); ok {
			if err := e.Err(); err != nil {
				return fmt.Errorf("replica %d: %w", i, err)
			}
		}
	}
	return nil
}

// Reduce performs the deterministic tree all-reduce: a binary-tree gather
// of the followers' ordered per-microbatch gradient lists (rounds of
// pairwise list handoffs — the communication schedule), then the root
// fold into the leader's accumulators in global microbatch order. Stages
// are folded concurrently; within a stage the order is fixed, so the
// result is bit-identical to serial single-replica accumulation.
func (g *Group) Reduce() {
	r := len(g.members)
	t0 := g.rec.Now()
	// Tree gather: at round d, member m (m ≡ 0 mod 2d) absorbs member
	// m+d's ordered list. Chunks are contiguous, so concatenation in
	// replica order preserves global microbatch order.
	lists := make([][][][]*tensor.Tensor, r)
	for i := 1; i < r; i++ {
		// Full-slice expression: appends during the gather must reallocate
		// rather than scribble over the member's pooled staging entries.
		lists[i] = g.members[i].grads[:g.members[i].n:g.members[i].n]
	}
	for d := 1; d < r; d *= 2 {
		for m := 0; m+d < r; m += 2 * d {
			lists[m] = append(lists[m], lists[m+d]...)
			lists[m+d] = nil
		}
	}
	// Root fold, one goroutine per stage (stages touch disjoint params).
	p := g.lead.Stages()
	var wg sync.WaitGroup
	wg.Add(p)
	for st := 0; st < p; st++ {
		st := st
		go func() {
			defer wg.Done()
			for _, micro := range lists[0] {
				g.lead.FoldStageGrads(st, micro[st])
			}
		}()
	}
	wg.Wait()
	if g.rec != nil {
		var bytes int64
		for _, micro := range lists[0] {
			for _, stage := range micro {
				bytes += tensorsBytes(stage)
			}
		}
		g.ctracks[0].Span(trace.NameReduce, t0, -1, -1, bytes)
	}
}

// PushState copies the leader's post-step state into m: every stage's
// StageState through ImportStageState (which also pushes m's version
// queue, as the leader's FinishStage did), then the step clock. It is the
// core of the restore and join handoffs.
func PushState(lead Leader, m Member) {
	for st := 0; st < lead.Stages(); st++ {
		m.ImportStageState(st, lead.StageState(st))
	}
	m.SetStep(lead.Step())
}

// owns reports whether member pos steps at least one stage under the
// current plan.
func (g *Group) owns(pos int) bool {
	lo, hi := g.plan.Shard(pos)
	return lo < hi
}

// Commit commits one shared optimizer step for the minibatch Reduce just
// folded into the leader, ZeRO / PipeDream-2BW style. The commit plan
// assigns each stage to a replica owner (contiguous shards, sizes
// differing by at most one); each owner runs the commit phases for its
// shard against its own parameter copies and its local shard of the
// optimizer state, so no replica — leader included — steps more than
// ⌈P/owners⌉ stages. A one-owner plan is the leader-serial commit: the
// leader steps every stage, and the gather is the full state broadcast.
//
// Determinism (bit-identical for every owner count, and hence to
// single-replica Reference):
//
//  1. The scatter is a pure copy. All gradient arithmetic stayed at the
//     tree root (Reduce); an owner's accumulator receives the leader's
//     reduced gradient bitwise.
//  2. Per-stage phase arithmetic is location-independent. PrepareStage,
//     ScaleStage, StepStage and FinishStage touch only the stage's
//     parameter range, and every input — masters (gather-synced),
//     reduced gradients (scattered), moment state (stepped only by the
//     owner, every step, from identical inputs), step clocks (every
//     member advances once per commit), τ delays and schedules (identical
//     by construction), the epoch phase (SetEpoch) — is bitwise equal to
//     the leader's, so the owner performs bitwise the arithmetic the
//     leader would have.
//  3. Cross-stage reductions keep stage order. The clip-norm partials are
//     folded st = 0..P−1 on the orchestrator, exactly as the serial
//     commit sums them, and the resulting scale is computed once.
//  4. The gather is a pure copy. Every member imports each stage it does
//     not own from the owner's post-step state and pushes its version
//     queue exactly once per stage, so every replica's version history
//     replays identically.
//
// A member failure surfaces as *MemberError when eviction can handle it
// (CanEvict) and as a plain wrapped error otherwise; the group must not
// commit again after a non-evictable error.
func (g *Group) Commit(nMicro int) error {
	p := g.lead.Stages()
	// Scatter: move the leader's reduced gradients to their owners and
	// align the owners' epoch clocks. TakeStageGrads zeroes the leader's
	// accumulator, so gradient ownership moves wholesale.
	t0 := g.rec.Now()
	var scatterBytes int64
	for i, m := range g.members[1:] {
		if g.owns(i + 1) {
			m.member.SetEpoch(g.lead.Epoch())
		}
	}
	if g.scatter == nil {
		g.scatter = make([][]*tensor.Tensor, p)
		g.sumSqs = make([]float64, p)
	}
	for st := 0; st < p; st++ {
		if o := g.plan.OwnerOf(st); o != 0 {
			g.scatter[st] = g.lead.TakeStageGrads(st, g.scatter[st])
			g.members[o].member.SetStageGrads(st, g.scatter[st])
			if g.rec != nil {
				scatterBytes += tensorsBytes(g.scatter[st])
			}
		}
	}
	g.ctracks[0].Span(trace.NameScatter, t0, -1, -1, scatterBytes)
	// Prepare: owners average their shard's gradients and report the
	// per-stage clip partials.
	g.eachMember(func(i int, m Member, lo, hi int) {
		t0 := g.rec.Now()
		for st := lo; st < hi; st++ {
			g.sumSqs[st] = m.PrepareStage(st, nMicro)
		}
		g.ctracks[i].Span(trace.NameCommitPrepare, t0, lo, -1, 0)
	})
	if pos, err := g.firstFault(); pos >= 0 {
		// No member has advanced its step clock yet, so an evictable
		// failure up to Prepare replays the whole minibatch over the
		// survivors (ResetGrads first — the scatter moved gradients).
		return g.classify(pos, err, true)
	}
	sumSq := 0.0
	for _, s := range g.sumSqs {
		sumSq += s
	}
	scale := g.lead.ClipScale(sumSq)
	// Step: every member advances its step clocks (owners and idle
	// members alike, keeping the R trainers' step counters and Adam
	// clocks in lockstep), then owners scale, step and finish their
	// shards.
	g.eachMember(func(i int, m Member, lo, hi int) {
		tk := g.ctracks[i]
		m.BeginStep()
		if scale != 1 {
			t0 := g.rec.Now()
			for st := lo; st < hi; st++ {
				m.ScaleStage(st, scale)
			}
			tk.Span(trace.NameCommitScale, t0, lo, -1, 0)
		}
		t0 := g.rec.Now()
		for st := lo; st < hi; st++ {
			m.StepStage(st)
		}
		tk.Span(trace.NameCommitStep, t0, lo, -1, 0)
		t0 = g.rec.Now()
		for st := lo; st < hi; st++ {
			m.FinishStage(st)
		}
		tk.Span(trace.NameCommitFinish, t0, lo, -1, 0)
	})
	// Gather: every member imports each stage from the owner's post-step
	// state, in stage order, pushing its own version queue. Owner states
	// are read once, before the fan-out: for in-process owners that is a
	// read of the live tensors, and for remote owners it fetches the
	// stage exactly once into a stable buffer that the concurrent
	// importers then only read.
	t0 = g.rec.Now()
	states := make([][]*tensor.Tensor, p)
	var gatherBytes int64
	for st := 0; st < p; st++ {
		states[st] = g.members[g.plan.OwnerOf(st)].member.StageState(st)
		if g.rec != nil {
			gatherBytes += tensorsBytes(states[st])
		}
	}
	g.eachMember(func(i int, m Member, _, _ int) {
		for st := 0; st < p; st++ {
			if g.plan.OwnerOf(st) != i && states[st] != nil {
				m.ImportStageState(st, states[st])
			}
		}
	})
	g.ctracks[0].Span(trace.NameGather, t0, -1, -1, gatherBytes)
	if pos, err := g.firstFault(); pos >= 0 {
		if !g.owns(pos) {
			// Every owner stepped and every healthy member imported from
			// the owners independently, so a member that owns no stage
			// evicts without replay: the minibatch's loss and step are
			// already final.
			return g.classify(pos, err, false)
		}
		// Step clocks have advanced and a dead owner's stepped shard is
		// unrecoverable mid-commit: survivors hold a mix of pre- and
		// post-step stages. Only a checkpoint restore recovers this.
		return fmt.Errorf("replica %d: %w", pos, err)
	}
	return nil
}

// eachMember runs fn concurrently for every member with its owner shard,
// waiting for all: one goroutine per replica, each touching only its own
// trainer's state (plus read-only peers during the gather).
func (g *Group) eachMember(fn func(i int, m Member, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(len(g.members))
	for i, c := range g.members {
		i, c := i, c
		go func() {
			defer wg.Done()
			lo, hi := g.plan.Shard(i)
			fn(i, c.member, lo, hi)
		}()
	}
	wg.Wait()
}

// LossSum folds the per-microbatch losses in global microbatch order —
// replica chunks are contiguous, so replica order then chunk order is the
// serial order — and returns the sum (the caller divides by N).
func (g *Group) LossSum() float64 {
	sum := 0.0
	for _, m := range g.members {
		for _, l := range m.losses[:m.n] {
			sum += l
		}
	}
	return sum
}

// Compute is the per-replica host wrapper a replicated engine hands to
// that replica's inner engine. The replica's pipeline slots are its Local
// member's own; Compute overrides the minibatch framing (global
// microbatch base, leader's epoch phase), captures per-microbatch losses,
// exports per-(microbatch, stage) gradients on followers, and turns the
// commit phase into a no-op — the commit belongs to the replicated engine
// after the all-reduce. A remote member has no local slots (Local is nil):
// its chunk runs out of process through Run.
type Compute struct {
	Local         // the replica's pipeline slots; nil for a remote member
	member Member // the commit and exchange surface the group drives
	leader bool
	p      int

	// Per-minibatch state, written by begin before the inner engine runs
	// and read by its workers (happens-before via the engine's channels).
	start  int // global microbatch counter of the chunk start
	n      int // chunk length
	async  bool
	losses []float64
	taken  []bool
	grads  [][][]*tensor.Tensor // [k][stage][param] exported grads (followers)
}

func newCompute(m Member, leader bool) *Compute {
	l, _ := m.(Local)
	return &Compute{Local: l, member: m, leader: leader, p: m.Stages()}
}

// NewCompute wraps a follower member for chunk execution outside a
// Group — the worker-process side of the remote protocol, where the
// serve loop drives its local follower through an inner engine and ships
// the captured losses and gradient exports back (transport.ServeConn).
func NewCompute(m Local) *Compute { return newCompute(m, false) }

// BeginChunk resets the wrapper for a chunk of n microbatches starting
// at global microbatch counter start, under the leader's epoch phase.
func (c *Compute) BeginChunk(start, n int, async bool) { c.begin(start, n, async) }

// Losses returns the chunk's captured per-microbatch losses, in chunk
// order.
func (c *Compute) Losses() []float64 { return c.losses[:c.n] }

// Grads returns the chunk's exported per-(microbatch, stage) gradients.
func (c *Compute) Grads() [][][]*tensor.Tensor { return c.grads[:c.n] }

// Remote reports whether the wrapped member has no local pipeline — in
// which case the replicated engine calls Run instead of driving an inner
// engine over this wrapper.
func (c *Compute) Remote() bool { return c.Local == nil }

// Run ships the chunk to a remote member (Runner) and stores the returned
// losses and gradient exports where Reduce and LossSum read them — the
// remote counterpart of an inner engine driving the wrapper's slots
// locally.
func (c *Compute) Run(ctx context.Context, micros [][]int) error {
	r, ok := c.member.(Runner)
	if !ok {
		return fmt.Errorf("replica: member %T cannot run chunks remotely", c.member)
	}
	losses, grads, err := r.RunChunk(ctx, c.start, c.async, micros)
	if err != nil {
		return err
	}
	if len(losses) != c.n || len(grads) != c.n {
		return fmt.Errorf("replica: remote chunk returned %d losses and %d gradient exports, want %d", len(losses), len(grads), c.n)
	}
	copy(c.losses[:c.n], losses)
	for k := range grads {
		c.grads[k] = grads[k]
	}
	return nil
}

// begin resets the wrapper for a chunk of n microbatches starting at
// global counter start.
func (c *Compute) begin(start, n int, async bool) {
	c.start, c.n, c.async = start, n, async
	for len(c.losses) < n {
		c.losses = append(c.losses, 0)
		c.taken = append(c.taken, false)
	}
	for k := 0; k < n; k++ {
		c.losses[k] = 0
		c.taken[k] = false
	}
	if !c.leader {
		for len(c.grads) < n {
			c.grads = append(c.grads, make([][]*tensor.Tensor, c.p))
		}
	}
}

// Tracer implements trace.Carrier by delegating to the wrapped member
// (the follower trainer's host), so an inner engine driving this
// replica's pipeline finds the shared recorder and the replica's index.
// Remote members carry no local recorder — their compute happens in the
// worker process.
func (c *Compute) Tracer() (*trace.Recorder, int) {
	return trace.FromCarrier(c.member)
}

// Stages returns P.
func (c *Compute) Stages() int { return c.p }

// Async reports the leader's epoch phase: followers never advance their
// own epoch clock, so the leader's view is authoritative for all
// replicas.
func (c *Compute) Async() bool { return c.async }

// MicroBase returns the global microbatch counter of this replica's
// chunk, so every slot sees the same global s as a single-replica run.
func (c *Compute) MicroBase() int { return c.start }

// StageForward runs the replica's slot and records the microbatch's loss
// at the last stage of its first forward climb (a recompute climb returns
// the loss again; first-write-wins keeps the original).
func (c *Compute) StageForward(s, stage int) float64 {
	loss := c.Local.StageForward(s, stage)
	if stage == c.p-1 {
		if k := s - c.start; !c.taken[k] {
			c.losses[k] = loss
			c.taken[k] = true
		}
	}
	return loss
}

// StageBackward runs the replica's slot and, on followers, immediately
// exports the stage's just-accumulated gradient into the per-microbatch
// staging area (zeroing the stage accumulator, so the next microbatch
// again accumulates from zero). Monolithic tasks run their whole backward
// in stage 0's slot, so that slot exports every stage.
func (c *Compute) StageBackward(s, stage int) {
	c.Local.StageBackward(s, stage)
	if c.leader {
		return
	}
	k := s - c.start
	if c.Splittable() {
		c.grads[k][stage] = c.TakeStageGrads(stage, c.grads[k][stage])
		return
	}
	if stage == 0 {
		for st := 0; st < c.p; st++ {
			c.grads[k][st] = c.TakeStageGrads(st, c.grads[k][st])
		}
	}
}

// PrepareStage is a no-op: the commit phase runs once, through the group,
// after the all-reduce.
func (c *Compute) PrepareStage(stage, nMicro int) float64 { return 0 }

// ClipScale is a no-op (see PrepareStage).
func (c *Compute) ClipScale(sumSq float64) float64 { return 1 }

// ScaleStage is a no-op (see PrepareStage).
func (c *Compute) ScaleStage(stage int, scale float64) {}

// BeginStep is a no-op (see PrepareStage).
func (c *Compute) BeginStep() {}

// StepStage is a no-op (see PrepareStage).
func (c *Compute) StepStage(stage int) {}

// FinishStage is a no-op (see PrepareStage).
func (c *Compute) FinishStage(stage int) {}
