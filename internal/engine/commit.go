package engine

import (
	"fmt"

	"pipemare/internal/trace"
)

// CommitPlan assigns the P stages of an optimizer commit to owners. It is
// the one sharding rule every engine commits through: the Reference engine
// runs a single-owner plan serially, the concurrent engine spreads a
// plan's owner shards across its scheduler workers, and the replicated
// engine assigns owners to replica members so each replica steps only its
// shard against its local copy of the optimizer state (the ZeRO /
// PipeDream-2BW weight-sharded update).
//
// Shards are contiguous ascending runs of stages whose sizes differ by at
// most one — the same deterministic rule the replica layer uses to chunk
// microbatches — so concatenating the owners' shards in owner order
// enumerates the stages exactly once, in stage order. That gives two
// invariants the determinism argument rests on: every stage (and hence
// every optimizer parameter index) has exactly one owner, and any
// stage-ordered reduction (the clip-norm sum) can be folded by walking
// owners in order.
type CommitPlan struct {
	p  int
	lo []int // owner r owns stages [lo[r], lo[r+1]); len = owners+1
}

// NewCommitPlan splits p stages across the given number of owners. Owners
// beyond the stage count receive empty shards.
func NewCommitPlan(p, owners int) CommitPlan {
	if p < 1 {
		panic(fmt.Sprintf("engine: commit plan needs at least one stage, got %d", p))
	}
	if owners < 1 {
		panic(fmt.Sprintf("engine: commit plan needs at least one owner, got %d", owners))
	}
	pl := CommitPlan{p: p, lo: make([]int, owners+1)}
	lo := 0
	for r := 0; r < owners; r++ {
		pl.lo[r] = lo
		sz := p / owners
		if r < p%owners {
			sz++
		}
		lo += sz
	}
	pl.lo[owners] = lo
	return pl
}

// Stages returns P.
func (pl CommitPlan) Stages() int { return pl.p }

// Owners returns the number of owners the plan shards across.
func (pl CommitPlan) Owners() int { return len(pl.lo) - 1 }

// Shard returns the stage range [lo, hi) owner r steps. Any r at or past
// Owners() owns nothing: its range is empty.
func (pl CommitPlan) Shard(r int) (lo, hi int) {
	if r >= pl.Owners() {
		return pl.p, pl.p
	}
	return pl.lo[r], pl.lo[r+1]
}

// OwnerOf returns the owner of a stage.
func (pl CommitPlan) OwnerOf(stage int) int {
	for r := 1; r < len(pl.lo); r++ {
		if stage < pl.lo[r] {
			return r - 1
		}
	}
	panic(fmt.Sprintf("engine: stage %d outside the %d-stage commit plan", stage, pl.p))
}

// Commit executes one full optimizer commit against a host whose gradients
// hold a full minibatch of nMicro microbatches, walking the plan's owners
// in order and each shard's stages in order — so for any owner count the
// arithmetic is exactly the serial stage-ordered commit: average+snapshot
// per stage, the stage-ordered clip-norm reduction, one step-clock
// advance, the per-stage optimizer updates, then per-stage finalization.
// It is the serial executor of the Reference engine; the concurrent engine
// distributes the same shards across its workers, and the replica layer
// across replica members (replica.Group.Commit), with barriers between
// the phases.
func (pl CommitPlan) Commit(h Host, nMicro int) {
	p := pl.p
	tr, rep := trace.FromCarrier(h)
	tk := tr.Track(rep, trace.TidWorkerBase, "worker 0")
	t0 := tr.Now()
	sumSq := 0.0
	for st := 0; st < p; st++ {
		sumSq += h.PrepareStage(st, nMicro)
	}
	tk.Span(trace.NameCommitPrepare, t0, -1, -1, 0)
	if scale := h.ClipScale(sumSq); scale != 1 {
		t0 = tr.Now()
		for st := 0; st < p; st++ {
			h.ScaleStage(st, scale)
		}
		tk.Span(trace.NameCommitScale, t0, -1, -1, 0)
	}
	t0 = tr.Now()
	h.BeginStep()
	for st := 0; st < p; st++ {
		h.StepStage(st)
	}
	tk.Span(trace.NameCommitStep, t0, -1, -1, 0)
	t0 = tr.Now()
	for st := 0; st < p; st++ {
		h.FinishStage(st)
	}
	tk.Span(trace.NameCommitFinish, t0, -1, -1, 0)
}
