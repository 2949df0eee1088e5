package core

import (
	"strings"
	"testing"

	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
)

// repTask is a minimal Replicable task for exercising the replica-sharded
// trainer construction: one multi-scalar parameter per group, inert
// forward/backward.
type repTask struct {
	groups   []pipeline.ParamGroup
	numTrain int
	nGroups  int
}

func newRepTask(groups, numTrain int) *repTask {
	t := &repTask{numTrain: numTrain, nGroups: groups}
	for g := 0; g < groups; g++ {
		p := nn.NewParam("rep", 2)
		t.groups = append(t.groups, pipeline.ParamGroup{Name: "g", Params: []*nn.Param{p}})
	}
	return t
}

func (t *repTask) Groups() []pipeline.ParamGroup { return t.groups }
func (t *repTask) NumTrain() int                 { return t.numTrain }
func (t *repTask) Forward(idx []int) float64     { return 0.1 }
func (t *repTask) Backward()                     {}
func (t *repTask) EvalTest() float64             { return 0 }
func (t *repTask) CloneTask() Task               { return newRepTask(t.nGroups, t.numTrain) }

func repParams(t *repTask) []*nn.Param {
	var ps []*nn.Param
	for _, g := range t.groups {
		ps = append(ps, g.Params...)
	}
	return ps
}

// TestFollowersHoldOnlyTheirOptimizerShard pins the memory half of the
// sharded commit: under the (auto-enabled) sharded step, follower r's
// optimizer holds moment state exactly for the parameter range of its
// stage shard — contiguous, disjoint, and jointly covering, with the
// leader's shard, every parameter exactly once.
func TestFollowersHoldOnlyTheirOptimizerShard(t *testing.T) {
	const groups, stages, replicas = 10, 5, 3
	task := newRepTask(groups, 64)
	tr, err := New(task, optim.NewSGD(repParams(task), 0.9, 0), optim.Constant(0.1), Config{
		Stages: stages, BatchSize: 16, MicrobatchSize: 4, Replicas: replicas, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.ShardedStep() {
		t.Fatal("auto mode did not shard the step for R=3 + SGD")
	}
	covered := make([]int, groups)
	markShard := func(sh optim.Shard) {
		for i := sh.Lo; i < sh.Hi; i++ {
			covered[i]++
		}
	}
	markShard(tr.shardOf(tr.plan, 0)) // the leader's own shard
	for r, m := range tr.followers {
		f := m.(host).t
		got := f.opt.(interface{ StateRange() optim.Shard }).StateRange()
		want := tr.shardOf(tr.plan, r+1)
		if got != want {
			t.Fatalf("follower %d holds state for %+v, want its stage shard's params %+v", r+1, got, want)
		}
		markShard(got)
	}
	for i, k := range covered {
		if k != 1 {
			t.Fatalf("param %d covered by %d optimizer shards, want exactly 1", i, k)
		}
	}

	// More replicas than stages: the surplus replicas own nothing and
	// hold no state.
	task2 := newRepTask(4, 64)
	tr2, err := New(task2, optim.NewSGD(repParams(task2), 0.9, 0), optim.Constant(0.1), Config{
		Stages: 2, BatchSize: 16, MicrobatchSize: 4, Replicas: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 2; r <= 3; r++ {
		if sh := tr2.followers[r-1].(host).t.opt.(interface{ StateRange() optim.Shard }).StateRange(); sh.Len() != 0 {
			t.Fatalf("surplus replica %d holds state for %+v, want nothing", r, sh)
		}
	}
}

// TestShardedStepOffKeepsFollowersStateless pins the leader-serial path:
// followers never step, so they hold no moment state at all.
func TestShardedStepOffKeepsFollowersStateless(t *testing.T) {
	task := newRepTask(6, 64)
	tr, err := New(task, optim.NewSGD(repParams(task), 0.9, 0), optim.Constant(0.1), Config{
		Stages: 3, BatchSize: 16, MicrobatchSize: 4, Replicas: 2, Seed: 1,
		ShardedStep: ShardedStepOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.ShardedStep() {
		t.Fatal("ShardedStepOff did not disable sharding")
	}
	f := tr.followers[0].(host).t
	if sh := f.opt.(interface{ StateRange() optim.Shard }).StateRange(); sh.Len() != 0 {
		t.Fatalf("leader-serial follower holds moment state %+v, want none", sh)
	}
}

// TestShardedStepValidation pins the option's error paths: requiring the
// sharded step without replicas, or with an optimizer that cannot shard,
// must fail at construction.
func TestShardedStepValidation(t *testing.T) {
	task := newRepTask(6, 64)
	base := Config{Stages: 3, BatchSize: 16, MicrobatchSize: 4, Seed: 1}

	cfg := base
	cfg.ShardedStep = ShardedStepOn
	if _, err := New(task, optim.NewSGD(repParams(task), 0.9, 0), optim.Constant(0.1), cfg); err == nil ||
		!strings.Contains(err.Error(), "at least 2 replicas") {
		t.Fatalf("ShardedStepOn without replicas: err = %v", err)
	}

	cfg = base
	cfg.ShardedStep = ShardedStepOn
	cfg.Replicas = 2
	co := &countingOptimizer{ps: repParams(task)}
	if _, err := New(task, co, optim.Constant(0.1), cfg); err == nil ||
		!strings.Contains(err.Error(), "does not support state sharding") {
		t.Fatalf("ShardedStepOn with unshardable optimizer: err = %v", err)
	}

	// Auto mode with an unshardable optimizer falls back to leader-serial
	// instead of failing.
	cfg = base
	cfg.Replicas = 2
	tr, err := New(task, &countingOptimizer{ps: repParams(task)}, optim.Constant(0.1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ShardedStep() {
		t.Fatal("auto mode sharded the step for an unshardable optimizer")
	}

	cfg = base
	cfg.ShardedStep = ShardedStepMode(99)
	if _, err := New(task, optim.NewSGD(repParams(task), 0.9, 0), optim.Constant(0.1), cfg); err == nil ||
		!strings.Contains(err.Error(), "unknown sharded-step mode") {
		t.Fatalf("unknown mode: err = %v", err)
	}
}
