// Package core implements the PipeMare training system (§3 of the paper):
// asynchronous pipeline-parallel SGD with Technique 1 (learning-rate
// rescheduling), Technique 2 (discrepancy correction) and Technique 3
// (synchronous warmup epochs), plus the two baselines it is compared
// against — GPipe-style synchronous training and PipeDream-style weight
// stashing — the recompute delay path of Appendix D, and the Hogwild!-style
// random delays of Appendix E.
//
// The trainer simulates the pipeline at microbatch granularity using the
// timing model of package pipeline: for every microbatch it installs the
// stage-appropriate delayed weight version for the forward pass, a
// method-dependent version for the backward pass, runs real backprop
// through the task's model, and commits optimizer updates at minibatch
// boundaries — the same "queue of weights per pipeline stage" simulation
// the paper describes in Appendix C.4.
//
// How those per-slot operations are scheduled onto goroutines is delegated
// to a pluggable engine (package engine): the trainer implements
// engine.Host — stage-indexed install/restore/commit primitives plus
// per-stage forward/backward compute slots over in-flight microbatch
// machines — and the configured engine.Engine drives one minibatch at a
// time through it. Tasks implementing StageTask execute as true per-stage
// segments (so engines can overlap microbatches across stages); plain
// Tasks run monolithically inside the last stage's forward slot and stage
// 0's backward slot. Config.Engine selects the engine; nil means the
// serial Reference engine.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"pipemare/internal/data"
	"pipemare/internal/engine"
	"pipemare/internal/engine/replicated"
	"pipemare/internal/metrics"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
)

// Method selects the pipeline-parallel training method.
type Method int

// The three methods of Table 1, plus Appendix E's Hogwild! delays.
const (
	// GPipe is synchronous training: no delay, pipeline bubbles.
	GPipe Method = iota
	// PipeDream stashes forward weights so τ_fwd = τ_bkwd = (2(P−i)+1)/N.
	PipeDream
	// PipeMare runs fully asynchronously: τ_fwd = (2(P−i)+1)/N, τ_bkwd = 0.
	PipeMare
	// Hogwild computes each stage's whole gradient, forward and backward,
	// on a stashed snapshot like PipeDream, but the snapshot's delay is
	// drawn at random per (minibatch, stage) — Appendix E's truncated
	// exponential with mean 0.8·τmax·(P−i+1)/P and cap τmax = 24 — instead
	// of following the pipeline clock. τ_fwd = τ_bkwd = that mean.
	Hogwild
)

// The Appendix E delay model: the cap τmax and the mean's scale.
const (
	hogwildTauMax    = 24
	hogwildMeanScale = 0.8
)

// String names the method.
func (m Method) String() string {
	switch m {
	case GPipe:
		return "GPipe"
	case PipeDream:
		return "PipeDream"
	case PipeMare:
		return "PipeMare"
	case Hogwild:
		return "Hogwild"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Task abstracts a model + loss over an indexed training set. Forward and
// Backward are split so the trainer can install different weight versions
// between them.
type Task interface {
	// Groups returns the model's parameters in topological order, grouped
	// so that weights that must share a stage stay together.
	Groups() []pipeline.ParamGroup
	// NumTrain returns the training-set size.
	NumTrain() int
	// Forward computes the mean loss on the given sample indices, caching
	// activations for Backward.
	Forward(idx []int) float64
	// Backward backpropagates from the last Forward, accumulating
	// parameter gradients.
	Backward()
	// EvalTest returns the task metric on the held-out set (accuracy in
	// percent, or BLEU) using the current forward weights.
	EvalTest() float64
}

// Replicable is a Task that can produce an architecturally identical
// fresh instance for data-parallel replication (Config.Replicas > 1).
// The clone must have the same weight-group structure and parameter
// shapes; its initial weights are overwritten with the leader's before
// training starts, so the clone's own initialization does not matter.
type Replicable interface {
	Task
	// CloneTask returns a fresh task instance over the same dataset with
	// the same architecture.
	CloneTask() Task
}

// StageTask is a Task whose network compiles to an op program aligned with
// its weight groups, so the trainer can execute it as per-stage segments:
// any stage partition of the groups induces contiguous op ranges, and the
// boundary activations live in per-microbatch machines. Tasks implementing
// StageTask let the concurrent engine overlap several microbatches across
// pipeline stages; plain Tasks fall back to monolithic execution (the
// whole forward runs in the last stage's slot, the whole backward in the
// first stage's).
type StageTask interface {
	Task
	// Program returns the compiled op program. Ops must be grouped in the
	// same order as Groups().
	Program() *nn.Program
	// BindMicro loads the indexed samples (inputs and labels) into a
	// freshly reset machine.
	BindMicro(m *nn.Machine, idx []int)
}

// Config configures a training run.
type Config struct {
	Method         Method
	Stages         int // P; 0 means one stage per weight group (fine-grained maximum)
	BatchSize      int
	MicrobatchSize int

	// Partition selects how weight groups are split into the P stages:
	// PartitionEven (the default, by group count), PartitionCost
	// (bottleneck-minimizing over the analytic per-group cost model), or
	// PartitionProfile (over measured per-group wall time from a
	// one-microbatch profiling pass at build time). The partition changes
	// each parameter's stage and therefore its delay τ_fwd — curves are
	// deterministic per mode, not across modes.
	Partition pipeline.PartitionMode

	// GroupCosts optionally supplies explicit per-group costs for the
	// cost/profile partition modes (e.g. from an offline profiler),
	// overriding the built-in estimators. Must match the task's group
	// count; requires a non-even partition mode.
	GroupCosts []float64

	// T1: learning-rate rescheduling annealing length in optimizer steps
	// (0 disables T1).
	T1K int
	// T2: discrepancy-correction decay hyperparameter D (0 disables T2).
	T2D float64
	// T3: number of initial synchronous (GPipe-style) warmup epochs.
	WarmupEpochs int

	// RecomputeSegments enables the Appendix D recompute delay path with
	// the given number of gradient-checkpoint segments (0 disables it).
	RecomputeSegments int

	ClipNorm float64 // global gradient-norm clip (0 disables)
	LossCap  float64 // divergence threshold (0 = 1e6)
	Seed     int64

	// Replicas is the data-parallel replica count R (0 or 1 disables
	// replication). With R > 1 the task must implement Replicable: the
	// trainer owns R−1 follower trainers, each minibatch's microbatches
	// are split contiguously across the replicas, and one shared
	// optimizer step commits on this (leader) trainer after a
	// deterministic gradient all-reduce — bit-identical to the
	// single-replica curves. R must not exceed the microbatch count N.
	Replicas int

	// ShardedStep selects whether the optimizer commit is sharded across
	// the data-parallel replicas (ZeRO / PipeDream-2BW style): each replica
	// owns a contiguous shard of the pipeline stages, holds the optimizer
	// moment state only for that shard, and steps it locally after the
	// gradient all-reduce; the stepped weights (and T2 state) then
	// all-gather back. Off, the commit plan has one owner: the leader
	// steps every stage and the gather broadcasts its state (the
	// leader-serial commit). Curves are bit-identical either way. The
	// default (ShardedStepAuto) shards whenever Replicas > 1 and the
	// optimizer supports it (optim.ShardCloner).
	ShardedStep ShardedStepMode

	// Engine selects the execution engine; nil means the single-goroutine
	// Reference engine (or, with Replicas > 1, the replicated engine over
	// Reference inners). With Replicas > 1 the engine must be
	// replica-aware (replica.Aware).
	Engine engine.Engine

	// Followers optionally supplies the member surface for follower
	// replicas 1..Replicas-1 instead of building in-process follower
	// trainers — the hook the transport layer uses to connect remote
	// worker processes (pipemare.WithTransport). New calls it once per
	// follower, after the leader is fully built, with the resolved
	// replication environment.
	Followers func(r int, env ReplicaEnv) (replica.Member, error)

	// FaultTolerant makes follower failures survivable under the sharded
	// commit: every replica holds the full optimizer moment state
	// (optim.Stateful over the full parameter range), stage state carries
	// the moments through every gather and broadcast, and a dead owner's
	// shard therefore survives on its peers — the precondition for
	// deterministic eviction of an owner. A follower that owns no stage
	// (every follower under the leader-serial commit) is evictable
	// without it. Enabled automatically when checkpointing is configured
	// with a sharded commit (the restore path needs the mirrored moments).
	FaultTolerant bool

	// Elastic enables mid-run scale-up: the leader accepts joining worker
	// connections (Trainer.AcceptJoins), parks each until the next
	// minibatch boundary — the only point with no collective in flight —
	// and admits it with a live state handoff (masters, T2 state,
	// optimizer moments, version rings, clocks), growing the reduce tree
	// and commit plan to R+1. Requires Replicas >= 2 (a running replica
	// group to grow). Under the sharded commit it implies FaultTolerant,
	// exactly as eviction does: admission reshuffles stage ownership.
	Elastic bool

	// StragglerDeadline and StragglerMisses configure straggler demotion
	// for remote followers: a follower whose collective reply misses
	// StragglerDeadline for StragglerMisses consecutive deadline windows
	// is demoted to standby — kept alive, excluded from the reduce tree
	// and commit plan, its microbatches redistributed — and automatically
	// readmitted through the join handoff path once its late reply drains.
	// Zero values disable demotion (the default: wait indefinitely, bar
	// heartbeat liveness).
	StragglerDeadline time.Duration
	StragglerMisses   int

	// Heartbeat is the resolved remote-follower liveness cadence
	// (pipemare.WithHeartbeat); the join path reuses it when welcoming
	// admitted members so joiners get the same liveness contract as
	// dial-time followers.
	Heartbeat time.Duration

	// CheckpointDir, when non-empty, makes the leader serialize its full
	// training state (masters, optimizer moments, T2 accumulators, the
	// per-stage weight-version rings, and the step/epoch/microbatch
	// clocks) to a CRC'd frame file in that directory every
	// CheckpointEvery optimizer steps. Restore with Trainer.RestoreLatest
	// (or pipemare.Restore). Followers never checkpoint.
	CheckpointDir   string
	CheckpointEvery int

	// Trace, when non-nil, is the event recorder every layer under this
	// trainer emits into (slot spans, commit phases, collectives, wire
	// round-trips, fault instants). The recorder only reads clocks and
	// appends to its own buffers, so curves stay bit-identical with
	// tracing on or off. TraceReplica is the replica index events from
	// this trainer are attributed to (0 = leader); New propagates the
	// recorder and the right index to in-process followers.
	Trace        *trace.Recorder
	TraceReplica int
}

// ReplicaEnv is what a Config.Followers factory needs to connect a
// follower: the leader's member surface (initial state, clocks) and the
// resolved replication topology the remote side must agree with.
type ReplicaEnv struct {
	Leader   replica.Leader
	Replicas int
	Stages   int
	Sharded  bool
	Method   Method
	T2       bool
	// GroupCosts is the per-group cost vector the leader's partitioner
	// balanced, so a measured (profile) partition pins identically on a
	// remote worker.
	GroupCosts []float64
	// FaultTolerant propagates the leader's resolved fault-tolerance mode
	// so a remote follower builds the same (moment-extended) stage-state
	// layout.
	FaultTolerant bool
}

// ShardedStepMode selects the replica-sharded optimizer commit
// (Config.ShardedStep).
type ShardedStepMode int

const (
	// ShardedStepAuto shards the commit when Replicas > 1 and the
	// optimizer implements optim.ShardCloner.
	ShardedStepAuto ShardedStepMode = iota
	// ShardedStepOn requires the sharded commit; building the trainer
	// fails when Replicas < 2 or the optimizer cannot shard.
	ShardedStepOn
	// ShardedStepOff commits over a one-owner plan: the leader steps
	// every stage and the gather broadcasts its full state.
	ShardedStepOff
)

// Observer receives the curve after each completed epoch. epoch is the
// 1-based index of the entry just recorded — run.Loss[epoch-1] is always
// valid. When a single curve is threaded through repeated calls (RunInto),
// it is also the cumulative epoch count.
type Observer func(epoch int, run *metrics.Run)

// Trainer drives pipeline-parallel training of a Task.
type Trainer struct {
	task  Task
	opt   optim.Optimizer
	sched optim.Schedule
	cfg   Config
	eng   engine.Engine

	part       *pipeline.Partition
	groupCosts []float64 // per-group costs the partitioner balanced
	clock      pipeline.Clock
	store      *pipeline.VersionStore
	params     []*nn.Param // in forward order (matches optimizer order)
	stage1     []int       // 1-indexed stage per param
	stageLo    []int       // params[stageLo[s]:stageHi[s]] belong to stage s
	stageHi    []int
	stageLRs   [][]float64 // per-stage learning-rate scratch (StepStage)
	taus       []float64   // per-param τ_fwd in minibatch units
	masters    []*tensor.Tensor

	// T2 state: per-param velocity accumulator δ and the materialized
	// corrected backward weights (master − τ·δ).
	delta     []*tensor.Tensor
	corrected []*tensor.Tensor
	gamma     []float64
	prev      []*tensor.Tensor // master weights before the last update

	// Recompute state: segment end (1-indexed stage) per stage, and the
	// per-param recompute-corrected buffers.
	segEnd1 []int

	// Stage-split execution state (nil program for monolithic tasks): the
	// op ranges each stage owns and the in-flight microbatch machines. The
	// flows map is the only trainer state shared between engine goroutines
	// outside the per-stage ownership contract, hence its own mutex.
	stageTask  StageTask
	prog       *nn.Program
	opLo, opHi []int
	flowMu     sync.Mutex
	flows      map[int]*flight
	freeFlows  []*flight

	// Data-parallel replication state: a leader trainer owns its follower
	// members — in-process follower trainers, or remote proxies from
	// Config.Followers — and pushes state and clocks into them through
	// their member surface. plan assigns each stage's optimizer commit to
	// a replica owner when the sharded step is on.
	followers  []replica.Member
	sharded    bool
	plan       engine.CommitPlan
	stageState [][]*tensor.Tensor // per-stage exchange layout (stageLayout, moments iff momentShare)

	// Fault-tolerance state: stateful is the optimizer's moment surface
	// when it spans the full parameter range (nil otherwise); momentShare
	// marks the fault-tolerant stage-state layout (moments ride along in
	// stageState, so gathers and broadcasts mirror them onto every
	// replica).
	stateful    optim.Stateful
	momentShare bool

	observer   Observer
	micro      int // global microbatch counter s
	step       int // optimizer step counter (minibatches committed)
	commitStep int // step index of the update being committed (BeginStep)
	epoch      int // cumulative epochs completed (persists across Run calls)
	diverged   bool
	resumeSkip int // full minibatches to skip in the first epoch after a restore
	closed     bool
	dtype      tensor.DType // model dtype, fixed at build: engines reassign Param.Data concurrently

	ckptWrites int   // checkpoints written
	ckptNs     int64 // cumulative wall time spent writing them

	// Elastic-membership state: parked joiner connections awaiting the
	// next minibatch boundary (fed by AcceptJoins goroutines, drained on
	// the run goroutine), the listeners and cancel that release them, and
	// the admission counters.
	joinMu     sync.Mutex
	pending    []pendingJoin
	joinLis    []io.Closer
	joinCtx    context.Context
	joinCancel context.CancelFunc
	joins      int   // members admitted mid-run (fresh joins and rejoins)
	handoffNs  int64 // cumulative wall time spent in state handoffs
}

// flight is one in-flight microbatch: its sample indices and, for
// stage-split tasks, its machine (registers, gradients, activation tape).
type flight struct {
	mb []int
	m  *nn.Machine
}

// New validates the configuration and builds a Trainer. The optimizer must
// have been constructed over exactly the parameters of task.Groups() in
// order (use Params on the returned trainer's partition, or build the
// optimizer from the same group traversal).
func New(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config) (*Trainer, error) {
	groups := task.Groups()
	p := cfg.Stages
	if p == 0 {
		p = len(groups)
	}
	if cfg.BatchSize <= 0 || cfg.MicrobatchSize <= 0 || cfg.BatchSize%cfg.MicrobatchSize != 0 {
		return nil, fmt.Errorf("core: batch size %d must be a positive multiple of microbatch size %d", cfg.BatchSize, cfg.MicrobatchSize)
	}
	if task.NumTrain() < cfg.BatchSize {
		return nil, fmt.Errorf("core: training set (%d samples) smaller than one batch (%d)", task.NumTrain(), cfg.BatchSize)
	}
	part, costs, err := buildPartition(task, groups, p, cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.BatchSize / cfg.MicrobatchSize
	if cfg.LossCap == 0 {
		cfg.LossCap = 1e6
	}
	if got, want := len(opt.Params()), len(part.Params()); got != want {
		return nil, fmt.Errorf("core: optimizer has %d params, partition has %d", got, want)
	}
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("core: replicas must be >= 0, got %d", cfg.Replicas)
	}
	replicas := cfg.Replicas
	if replicas == 0 {
		replicas = 1
	}
	if replicas > n {
		return nil, fmt.Errorf("core: %d replicas exceed the %d microbatches per minibatch (every replica needs at least one)", replicas, n)
	}
	eng := cfg.Engine
	if eng == nil {
		if replicas > 1 {
			eng = replicated.New()
		} else {
			eng = engine.NewReference()
		}
	}
	if replicas > 1 {
		if _, ok := eng.(replica.Aware); !ok {
			return nil, fmt.Errorf("core: engine %q is not replica-aware; use the replicated engine (internal/engine/replicated) to train %d replicas", eng.Name(), replicas)
		}
		if _, ok := task.(Replicable); !ok && cfg.Followers == nil {
			return nil, fmt.Errorf("core: task %T does not implement Replicable; %d-replica training needs CloneTask (or a Followers factory)", task, replicas)
		}
	}
	sharded, err := shardedStep(cfg.ShardedStep, opt, replicas)
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointDir != "" && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.CheckpointDir != "" && sharded {
		// Restoring a sharded run redistributes the leader's full state to
		// the followers, which needs the mirrored-moment layout.
		cfg.FaultTolerant = true
	}
	if cfg.StragglerMisses > 0 && cfg.StragglerDeadline <= 0 {
		return nil, fmt.Errorf("core: straggler demotion needs a positive deadline (got %v for %d misses)", cfg.StragglerDeadline, cfg.StragglerMisses)
	}
	if cfg.Method == Hogwild {
		// Recompute versions come from the Table 1 clock, and a remote
		// member's handshake does not carry the seed the delay draw
		// depends on.
		switch {
		case cfg.RecomputeSegments > 0:
			return nil, fmt.Errorf("core: the Hogwild method cannot recompute: recompute versions follow the Table 1 clock, not the drawn delays")
		case cfg.Followers != nil || cfg.Elastic:
			return nil, fmt.Errorf("core: the Hogwild method needs in-process replicas: the wire handshake does not carry the seed its delay draw depends on")
		}
	}
	if cfg.Elastic && replicas < 2 {
		return nil, fmt.Errorf("core: elastic membership needs a running replica group to grow (Replicas >= 2), got %d", replicas)
	}
	if sharded && (cfg.Elastic || cfg.StragglerMisses > 0) {
		// Admitting a joiner — or re-admitting a demoted straggler — under
		// the sharded commit reshuffles stage ownership, which needs the
		// mirrored-moment layout exactly as eviction does.
		cfg.FaultTolerant = true
	}
	// The fault-tolerant layout needs the full moment state resident on
	// this trainer: Stateful over the complete parameter range.
	var stateful optim.Stateful
	if st, ok := opt.(optim.Stateful); ok {
		if sc, ok := opt.(optim.ShardCloner); ok {
			if r := sc.StateRange(); r.Lo == 0 && r.Hi == len(opt.Params()) {
				stateful = st
			}
		}
	}
	momentShare := cfg.FaultTolerant && stateful != nil
	if cfg.FaultTolerant && replicas > 1 && stateful == nil {
		return nil, fmt.Errorf("core: fault-tolerant replication needs an optimizer exposing its full moment state (optim.Stateful + optim.ShardCloner over every parameter), got %T", opt)
	}
	t := &Trainer{
		task: task, opt: opt, sched: sched, cfg: cfg, eng: eng,
		part: part, groupCosts: costs,
		clock: pipeline.Clock{P: p, N: n},
	}
	t.stateful = stateful
	t.momentShare = momentShare
	t.params = part.Params()
	if len(t.params) > 0 {
		t.dtype = t.params[0].Data.DType()
	}
	t.stageLo = make([]int, p)
	t.stageHi = make([]int, p)
	t.stageLRs = make([][]float64, p)
	for s, ps := range part.Stages {
		t.stageLo[s] = len(t.stage1)
		for range ps {
			t.stage1 = append(t.stage1, s+1)
		}
		t.stageHi[s] = len(t.stage1)
		t.stageLRs[s] = make([]float64, len(ps))
	}
	t.taus = make([]float64, len(t.params))
	for i := range t.params {
		if cfg.Method == Hogwild {
			t.taus[i] = pipeline.MeanDelay(t.stage1[i], p, hogwildTauMax, hogwildMeanScale)
		} else {
			t.taus[i] = pipeline.FwdDelay(t.stage1[i], p, n)
		}
	}
	keep := (2*p+n)/n + 3
	if cfg.Method == Hogwild {
		keep = max(keep, hogwildTauMax+2)
	}
	t.store = pipeline.NewVersionStore(part.Stages, keep)
	t.masters = make([]*tensor.Tensor, len(t.params))
	for i, pm := range t.params {
		t.masters[i] = pm.Data
	}

	if cfg.T2D > 0 {
		t.delta = make([]*tensor.Tensor, len(t.params))
		t.corrected = make([]*tensor.Tensor, len(t.params))
		t.gamma = make([]float64, len(t.params))
		t.prev = make([]*tensor.Tensor, len(t.params))
		for i, pm := range t.params {
			t.delta[i] = tensor.NewLike(pm.Data)
			t.corrected[i] = pm.Data.Clone()
			t.prev[i] = pm.Data.Clone()
			// τ_bkwd = 0 for PipeMare, so γ_i = D^{1/τ_fwd,i}.
			t.gamma[i] = gammaFromD(cfg.T2D, t.taus[i])
		}
	}
	if cfg.RecomputeSegments > 0 {
		t.segEnd1 = segmentEnds(p, cfg.RecomputeSegments)
	}
	if st, ok := task.(StageTask); ok {
		prog := st.Program()
		lo, hi, err := prog.StageRanges(part.StageOf, p)
		if err != nil {
			return nil, err
		}
		t.stageTask, t.prog, t.opLo, t.opHi = st, prog, lo, hi
	}
	t.flows = make(map[int]*flight)
	t.sharded = sharded
	t.plan = t.commitPlan(replicas)
	// Per-stage exchange layout (StageState): fixed after construction, so
	// built once instead of per commit. Under the fault-tolerant layout the
	// stage's optimizer moments ride along, so every gather, broadcast and
	// handoff mirrors them onto all replicas.
	t.stageState = make([][]*tensor.Tensor, p)
	for s := range t.stageState {
		t.stageState[s] = t.stageLayout(s, t.momentShare)
	}
	if replicas > 1 && cfg.Followers != nil {
		env := ReplicaEnv{
			Leader: host{t}, Replicas: replicas, Stages: p,
			Sharded: sharded, Method: cfg.Method, T2: cfg.T2D > 0,
			GroupCosts:    costs,
			FaultTolerant: cfg.FaultTolerant,
		}
		for r := 1; r < replicas; r++ {
			m, err := cfg.Followers(r, env)
			if err != nil {
				return nil, fmt.Errorf("core: connecting replica %d: %w", r, err)
			}
			if m == nil {
				return nil, fmt.Errorf("core: follower factory returned nil member for replica %d", r)
			}
			t.followers = append(t.followers, m)
		}
		return t, nil
	}
	for r := 1; r < replicas; r++ {
		f, err := t.newFollower(task.(Replicable), r)
		if err != nil {
			return nil, err
		}
		t.followers = append(t.followers, f)
	}
	return t, nil
}

// shardedStep resolves a sharded-step mode for an R-replica trainer:
// Auto shards whenever R > 1 and the optimizer can split its state
// (optim.ShardCloner); On demands both.
func shardedStep(mode ShardedStepMode, opt optim.Optimizer, replicas int) (bool, error) {
	_, cloner := opt.(optim.ShardCloner)
	switch mode {
	case ShardedStepAuto:
		return replicas > 1 && cloner, nil
	case ShardedStepOn:
		if replicas < 2 {
			return false, fmt.Errorf("core: the sharded optimizer step needs at least 2 replicas, got %d (it shards the commit across replicas)", replicas)
		}
		if !cloner {
			return false, fmt.Errorf("core: optimizer %T does not support state sharding (optim.ShardCloner); use ShardedStepOff for the leader-serial commit", opt)
		}
		return true, nil
	case ShardedStepOff:
		return false, nil
	}
	return false, fmt.Errorf("core: unknown sharded-step mode %d", int(mode))
}

// commitPlan is the stage→owner plan of an r-replica commit: every
// replica owns a shard when the step is sharded, otherwise the leader
// owns every stage.
func (t *Trainer) commitPlan(r int) engine.CommitPlan {
	if !t.sharded {
		r = 1
	}
	return engine.NewCommitPlan(t.clock.P, r)
}

// stageLayout lists stage s's state tensors in the one order every state
// crossing uses — gather, broadcast, handoff and checkpoint: the master
// weights, then (T2) the δ accumulators and corrected weights, then, when
// moments is set, each parameter's optimizer moments. The tensors are the
// live ones, so the list aliases the trainer's state.
func (t *Trainer) stageLayout(s int, moments bool) []*tensor.Tensor {
	lo, hi := t.stageLo[s], t.stageHi[s]
	out := append([]*tensor.Tensor(nil), t.masters[lo:hi]...)
	if t.delta != nil {
		out = append(out, t.delta[lo:hi]...)
		out = append(out, t.corrected[lo:hi]...)
	}
	for i := lo; moments && i < hi; i++ {
		out = append(out, t.stateful.MomentTensors(i)...)
	}
	return out
}

// checkStage reports whether src can be copied tensor for tensor into
// dst: the same count, and each pair the same shape and dtype. Every
// import of stage state or version snapshots — from a peer, the wire or
// a checkpoint — passes it before a live tensor is touched.
func checkStage(dst, src []*tensor.Tensor) error {
	if len(src) != len(dst) {
		return fmt.Errorf("%d tensors, want %d", len(src), len(dst))
	}
	for k, d := range dst {
		if !d.SameShape(src[k]) || d.DType() != src[k].DType() {
			return fmt.Errorf("tensor %d is %v %v, want %v %v", k, src[k].DType(), src[k].Shape, d.DType(), d.Shape)
		}
	}
	return nil
}

// checkRing validates a stage's weight-version ring before it replaces
// the live one: a non-negative base and at least one snapshot (a trainer
// always installs from some version), each laid out like the stage's
// masters.
func (t *Trainer) checkRing(s, base int, snaps [][]*tensor.Tensor) error {
	if base < 0 || len(snaps) == 0 {
		return fmt.Errorf("stage %d ring has base %d and %d snapshots, want base >= 0 and at least one", s, base, len(snaps))
	}
	for k, snap := range snaps {
		if err := checkStage(t.masters[t.stageLo[s]:t.stageHi[s]], snap); err != nil {
			return fmt.Errorf("stage %d ring snapshot %d: %w", s, k, err)
		}
	}
	return nil
}

// shardOf maps replica r's stage shard under pl to its optimizer
// parameter range in this trainer's partition (empty when the replica
// owns no stages).
func (t *Trainer) shardOf(pl engine.CommitPlan, r int) optim.Shard {
	lo, hi := pl.Shard(r)
	if lo == hi {
		return optim.Shard{}
	}
	return optim.Shard{Lo: t.stageLo[lo], Hi: t.stageHi[hi-1]}
}

// buildPartition splits the task's weight groups into p stages under the
// configured partition mode, returning the partition and the per-group
// cost vector it balanced (the analytic estimate for even mode, so stage
// imbalance is always reportable).
func buildPartition(task Task, groups []pipeline.ParamGroup, p int, cfg Config) (*pipeline.Partition, []float64, error) {
	switch cfg.Partition {
	case pipeline.PartitionEven:
		if cfg.GroupCosts != nil {
			return nil, nil, fmt.Errorf("core: explicit group costs require the cost or profile partition mode")
		}
		part, err := pipeline.PartitionGroups(groups, p)
		if err != nil {
			return nil, nil, err
		}
		return part, analyticGroupCosts(task, groups), nil
	case pipeline.PartitionCost, pipeline.PartitionProfile:
		var costs []float64
		switch {
		case cfg.GroupCosts != nil:
			if len(cfg.GroupCosts) != len(groups) {
				return nil, nil, fmt.Errorf("core: %d group costs for %d weight groups", len(cfg.GroupCosts), len(groups))
			}
			costs = append([]float64(nil), cfg.GroupCosts...)
		case cfg.Partition == pipeline.PartitionProfile:
			if st, ok := task.(StageTask); ok {
				costs = measuredGroupCosts(st, groups, cfg.MicrobatchSize)
			} else {
				// Monolithic tasks cannot attribute wall time to groups;
				// fall back to the analytic proxy.
				costs = analyticGroupCosts(task, groups)
			}
		default:
			costs = analyticGroupCosts(task, groups)
		}
		part, err := pipeline.PartitionGroupsByCost(groups, costs, p)
		if err != nil {
			return nil, nil, err
		}
		return part, costs, nil
	}
	return nil, nil, fmt.Errorf("core: unknown partition mode %d", int(cfg.Partition))
}

// analyticGroupCosts is the static cost estimate the cost mode balances:
// the program's per-op FLOP/byte model for stage-split tasks, or scalar
// weight counts as a proxy for monolithic tasks.
func analyticGroupCosts(task Task, groups []pipeline.ParamGroup) []float64 {
	if st, ok := task.(StageTask); ok {
		cs := st.Program().GroupCosts(len(groups))
		out := make([]float64, len(cs))
		for i, c := range cs {
			out[i] = c.Weight()
		}
		return out
	}
	out := make([]float64, len(groups))
	for i, g := range groups {
		out[i] = float64(g.Size())
	}
	return out
}

// measuredGroupCosts is the profile mode's one-minibatch measurement pass:
// a warm forward+backward of one microbatch (machine pools and tape arenas
// reach steady state), then profileRuns timed passes accumulating per-op
// wall time onto the op's weight group. The gradients the backward halves
// accumulate are zeroed before training starts. Wall time is inherently
// noisy, so two builds may profile slightly different costs (and thus
// partitions); use Config.GroupCosts to pin a measured cost vector when
// exact reproducibility across trainers is required.
func measuredGroupCosts(st StageTask, groups []pipeline.ParamGroup, microbatchSize int) []float64 {
	const profileRuns = 3
	prog := st.Program()
	m := nn.NewMachine(prog.NumRegs)
	if len(groups) > 0 && len(groups[0].Params) > 0 {
		m.Tape.SetDType(groups[0].Params[0].Data.DType())
	}
	idx := make([]int, microbatchSize)
	for i := range idx {
		idx[i] = i
	}
	costs := make([]float64, len(groups))
	run := func(c []float64) {
		m.ResetRun()
		st.BindMicro(m, idx)
		if c == nil {
			prog.ForwardRange(m, 0, len(prog.Ops))
			prog.BackwardRange(m, 0, len(prog.Ops))
			return
		}
		prog.MeasureGroupCosts(m, c)
	}
	run(nil)
	for r := 0; r < profileRuns; r++ {
		run(costs)
	}
	var ps []*nn.Param
	for _, g := range groups {
		ps = append(ps, g.Params...)
	}
	nn.ZeroGrads(ps)
	return costs
}

// newFollower clones the leader's task, copies the leader's current
// (initial) weights into the clone — so the follower's version store
// seeds with the same version-0 snapshot — pins the leader's partition
// costs, and builds the follower through NewFollower, exactly as a
// worker process does.
func (t *Trainer) newFollower(rep Replicable, r int) (replica.Local, error) {
	ct := rep.CloneTask()
	var cps []*nn.Param
	for _, g := range ct.Groups() {
		cps = append(cps, g.Params...)
	}
	if len(cps) != len(t.params) {
		return nil, fmt.Errorf("core: replica %d clone has %d params, leader has %d", r, len(cps), len(t.params))
	}
	for i, cp := range cps {
		if !cp.Data.SameShape(t.params[i].Data) {
			return nil, fmt.Errorf("core: replica %d clone param %d (%s) shape %v differs from leader's %v",
				r, i, cp.Name, cp.Data.Shape, t.params[i].Data.Shape)
		}
		cp.Data.CopyFrom(t.params[i].Data)
	}
	cfg := t.cfg // Replicas is R: New builds followers only when R > 1
	if cfg.Partition != pipeline.PartitionEven {
		// Followers must land on the leader's exact partition: reuse its
		// (possibly measured) cost vector instead of re-estimating, so a
		// noisy profile pass cannot skew a follower's stage boundaries.
		cfg.GroupCosts = t.groupCosts
	}
	return NewFollower(ct, t.opt, t.sched, cfg, r)
}

// followerConfig derives replica r's configuration from its leader's by
// clearing every leader-only duty — the one derivation both the
// in-process followers and worker-process followers (NewFollower) use,
// so the two cannot drift apart. A follower is a single-replica trainer
// whose engine is never used for its own minibatches (the replicated
// engine or the worker's serve loop drives its slots), that never
// checkpoints, admits joiners or demotes stragglers, and whose trace
// events carry its own replica index.
func followerConfig(cfg Config, r int) Config {
	cfg.Replicas = 0
	cfg.ShardedStep = ShardedStepOff
	cfg.Engine = engine.NewReference()
	cfg.Followers = nil
	cfg.CheckpointDir = ""
	cfg.Elastic = false
	cfg.StragglerDeadline, cfg.StragglerMisses = 0, 0
	cfg.TraceReplica = r
	return cfg
}

// NewFollower builds a follower trainer for replica r of cfg.Replicas,
// returned as its local member surface: the in-process followers New
// builds for Replicas > 1, and the worker-process follower served to a
// remote leader (internal/transport). The caller supplies a task,
// optimizer and schedule constructed exactly as the leader's — same
// seeds, same options — which the transport handshake verifies end to
// end with a checksum over the initial per-stage state. The task is used
// directly, not cloned. The follower's optimizer is a state-sharded
// sibling of opt (optim.ShardCloner): full moments under fault
// tolerance, the moments of the stages replica r owns under the sharded
// step, and none at all otherwise — a follower that owns no stage is
// never stepped.
func NewFollower(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config, r int) (replica.Local, error) {
	R := cfg.Replicas
	if R < 2 {
		return nil, fmt.Errorf("core: a follower needs Replicas >= 2, got %d", R)
	}
	if r < 1 || r >= R {
		return nil, fmt.Errorf("core: follower replica %d out of range [1, %d)", r, R)
	}
	sharded, err := shardedStep(cfg.ShardedStep, opt, R)
	if err != nil {
		return nil, err
	}
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	fcfg := followerConfig(cfg, r)
	fopt := optim.Optimizer(optim.NewSGDShard(ps, 0, 0, optim.Shard{}))
	if cfg.FaultTolerant {
		// The fault-tolerant stage-state layout aliases the live moment
		// tensors, so the real (full-state) optimizer must exist before the
		// trainer is built — it cannot be swapped in afterwards.
		sc, ok := opt.(optim.ShardCloner)
		if !ok {
			return nil, fmt.Errorf("core: fault-tolerant follower needs a shardable optimizer (optim.ShardCloner), got %T", opt)
		}
		fopt = sc.CloneShard(ps, optim.FullShard(len(ps)))
	}
	f, err := New(task, fopt, sched, fcfg)
	if err != nil {
		return nil, fmt.Errorf("core: building follower %d: %w", r, err)
	}
	if sharded && !cfg.FaultTolerant {
		// Same shard geometry as the leader's plan for R replicas, mapped
		// through this follower's (identical) stage boundaries. Without the
		// fault-tolerant layout no stage state aliases the optimizer, so
		// swapping it in after construction is safe.
		sh := f.shardOf(engine.NewCommitPlan(f.clock.P, R), r)
		f.opt = opt.(optim.ShardCloner).CloneShard(ps, sh)
	}
	return host{f}, nil
}

// gammaFromD mirrors quad.GammaFromD for τ_bkwd = 0 without importing the
// theory package into the trainer.
func gammaFromD(d, tauFwd float64) float64 {
	if tauFwd <= 0 || d <= 0 {
		return 0
	}
	return math.Pow(d, 1/tauFwd)
}

// segmentEnds returns, for each 0-indexed stage, the 1-indexed last stage
// of its recompute segment, for segments of near-equal length.
func segmentEnds(p, segments int) []int {
	if segments > p {
		segments = p
	}
	ends := make([]int, p)
	for s := 0; s < p; s++ {
		seg := s * segments / p
		// Last stage of segment seg is the largest s' with s'·segments/p == seg.
		end := (seg+1)*p/segments - 1
		if end >= p {
			end = p - 1
		}
		ends[s] = end + 1 // 1-indexed
	}
	return ends
}

// Taus returns the per-parameter forward delays in minibatch units (the
// mean delays under Hogwild).
func (t *Trainer) Taus() []float64 { return t.taus }

// Stages returns the number of pipeline stages.
func (t *Trainer) Stages() int { return t.clock.P }

// Microbatches returns N, the number of microbatches per minibatch.
func (t *Trainer) Microbatches() int { return t.clock.N }

// Diverged reports whether training was aborted on a non-finite or
// capped loss.
func (t *Trainer) Diverged() bool { return t.diverged }

// Partition exposes the stage partition (for the memory model).
func (t *Trainer) Partition() *pipeline.Partition { return t.part }

// PartitionMode returns the configured partition mode.
func (t *Trainer) PartitionMode() pipeline.PartitionMode { return t.cfg.Partition }

// GroupCosts returns a copy of the per-group cost vector the partitioner
// balanced: the analytic estimate (even/cost modes), the measured wall
// times (profile mode), or the explicitly configured costs. For the cost
// and profile modes, feeding it back through Config.GroupCosts reproduces
// this trainer's partition exactly — the escape hatch for pinning a
// profiled partition. (An even-mode trainer's partition ignores costs by
// definition; the vector is informational there, for imbalance tracking.)
func (t *Trainer) GroupCosts() []float64 {
	return append([]float64(nil), t.groupCosts...)
}

// StageCosts returns the per-stage cost totals under the active partition.
func (t *Trainer) StageCosts() []float64 { return t.part.StageCosts(t.groupCosts) }

// StageImbalance returns max/mean of the per-stage costs — 1.0 is a
// perfectly balanced pipeline; the bottleneck stage caps the concurrent
// engine's overlap at mean/max of ideal.
func (t *Trainer) StageImbalance() float64 { return pipeline.Imbalance(t.StageCosts()) }

// Engine returns the execution engine driving this trainer.
func (t *Trainer) Engine() engine.Engine { return t.eng }

// Replicas returns the data-parallel replica count R (1 when replication
// is off).
func (t *Trainer) Replicas() int { return len(t.followers) + 1 }

// Close releases the trainer's follower members: a remote transport
// proxy says goodbye to its worker process and closes the connection;
// in-process followers hold nothing to release. It also stops the join
// accept loops, releases parked joiners, and closes any demoted
// standbys the engine still holds. Close is idempotent — the second and
// later calls return nil — and joins every member's close error rather
// than stopping at the first.
func (t *Trainer) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	var errs []error
	if t.joinCancel != nil {
		t.joinCancel()
	}
	for _, lis := range t.joinLis {
		if err := lis.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	t.joinMu.Lock()
	pend := t.pending
	t.pending = nil
	t.joinMu.Unlock()
	for _, pj := range pend {
		pj.conn.Close()
	}
	if cs, ok := t.eng.(standbyCloser); ok {
		if err := cs.CloseStandbys(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, m := range t.followers {
		if c, ok := m.(io.Closer); ok {
			if err := c.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// ShardedStep reports whether the optimizer commit is sharded across the
// replicas (always false for single-replica trainers).
func (t *Trainer) ShardedStep() bool { return t.sharded }

// Observe registers an observer invoked after every completed epoch.
func (t *Trainer) Observe(fn Observer) { t.observer = fn }

// synchronous reports whether the current epoch runs synchronously
// (GPipe method, or a T3 warmup epoch).
func (t *Trainer) synchronous() bool {
	return t.cfg.Method == GPipe || t.epoch < t.cfg.WarmupEpochs
}

// ratesInto fills out with the per-parameter learning rates of params
// [lo, hi) at optimizer step `step`: plain schedule while synchronous,
// T1-rescheduled once asynchronous (with the annealing clock starting at
// the async switch, so warmup epochs do not consume it). It is pure in the
// parameter range given the step index and the epoch phase — both frozen
// for the whole commit — so distinct stages may compute their rates
// concurrently (the stage-sharded StepStage commit).
func (t *Trainer) ratesInto(out []float64, step, lo, hi int) {
	base := t.sched.LR(step)
	// T1 uses the base schedule at the true step but anneals on async time.
	async, k := max(step-t.warmupSteps(), 0), t.cfg.T1K
	if t.synchronous() {
		k = 0
	}
	for i := lo; i < hi; i++ {
		out[i-lo] = optim.T1Rate(base, t.taus[i], async, k)
	}
}

// warmupSteps returns the number of optimizer steps spent in T3 warmup.
func (t *Trainer) warmupSteps() int {
	perEpoch := t.task.NumTrain() / t.cfg.BatchSize
	return t.cfg.WarmupEpochs * perEpoch
}

// recompVersion returns the number of updates committed at stage i
// (1-indexed) before the recompute slot of microbatch s for a segment
// ending at stage e1: the recompute of stage i runs 2(e−i)+1 slots before
// the gradient is applied.
func (t *Trainer) recompVersion(s, stage1, e1 int) int {
	num := s + 2*stage1 - 2*e1 - t.clock.N
	if num < 0 {
		return 0
	}
	return num/t.clock.N + 1
}

// host adapts the trainer to engine.Host without exporting the slot
// primitives on Trainer itself.
type host struct{ t *Trainer }

// Tracer implements trace.Carrier: engines, the replica layer and the
// commit plan discover the run's recorder (and which replica they are
// computing for) by type-asserting their Host against it.
func (h host) Tracer() (*trace.Recorder, int) { return h.t.cfg.Trace, h.t.cfg.TraceReplica }

// Stages returns P.
func (h host) Stages() int { return h.t.clock.P }

// Async reports whether the current epoch runs asynchronously.
func (h host) Async() bool { return !h.t.synchronous() }

// Recompute reports whether the Appendix D recompute path is enabled.
func (h host) Recompute() bool { return h.t.segEnd1 != nil }

// MicroBase returns the global microbatch counter for the minibatch start.
func (h host) MicroBase() int { return h.t.micro }

// InstallForward points the stage's parameters at the delayed snapshot
// visible at global microbatch s: the Table 1 version, or under Hogwild
// the latest version m = ⌊s/N⌋ less the delay drawn for (m, stage).
func (h host) InstallForward(s, stage int) {
	t := h.t
	v := t.clock.FwdVersion(s, stage+1)
	if t.cfg.Method == Hogwild {
		m := t.clock.Minibatch(s)
		mean := pipeline.MeanDelay(stage+1, t.clock.P, hogwildTauMax, hogwildMeanScale)
		v = max(0, m-pipeline.DrawDelay(t.cfg.Seed, m, stage, mean, hogwildTauMax))
	}
	snap := t.store.Get(stage, v)
	for j, pm := range t.part.Stages[stage] {
		pm.Data = snap[j]
	}
}

// InstallBackward sets the stage's backward weights for microbatch s.
func (h host) InstallBackward(s, stage int) {
	t := h.t
	switch t.cfg.Method {
	case PipeDream, Hogwild:
		// Backward uses the stashed forward weights: Bwd stays nil so
		// BwdData falls back to the installed snapshot.
	case PipeMare:
		for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
			if t.corrected != nil {
				t.params[i].Bwd = t.corrected[i]
			} else {
				t.params[i].Bwd = t.masters[i]
			}
		}
	}
}

// InstallRecompute points the stage's parameters at the version its
// recompute pass would read (Appendix D): stage i in a segment ending at
// stage e reads weights delayed by 2(e−i)+1 slots, corrected by the T2
// accumulator when enabled.
func (h host) InstallRecompute(s, stage int) {
	t := h.t
	st1 := stage + 1
	e1 := t.segEnd1[stage]
	v := t.recompVersion(s, st1, e1)
	snap := t.store.Get(stage, v)
	for j, pm := range t.part.Stages[stage] {
		i := t.stageLo[stage] + j
		if t.delta != nil {
			// u_recomp = w_{t−τr} − (τ_fwd − τ_recomp)·δ.
			tauR := float64(2*(e1-st1)+1) / float64(t.clock.N)
			coef := t.taus[i] - tauR
			buf := tensor.NewLike(snap[j])
			if buf.DType() == tensor.Float32 {
				recompCorrect(tensor.F32(buf), tensor.F32(snap[j]), tensor.F32(t.delta[i]), coef)
			} else {
				recompCorrect(tensor.F64(buf), tensor.F64(snap[j]), tensor.F64(t.delta[i]), coef)
			}
			pm.Data = buf
		} else {
			pm.Data = snap[j]
		}
	}
}

// Restore points the stage's parameters back at the live master weights
// and clears the backward decoupling.
func (h host) Restore(stage int) {
	t := h.t
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		t.params[i].Data = t.masters[i]
		t.params[i].Bwd = nil
	}
}

// Splittable reports whether the task runs as per-stage segments.
func (h host) Splittable() bool { return h.t.prog != nil }

// BeginMicro opens microbatch s, acquiring an in-flight machine from the
// pool. Safe to call from any engine goroutine.
func (h host) BeginMicro(s int, mb []int) {
	t := h.t
	t.flowMu.Lock()
	var fl *flight
	if n := len(t.freeFlows); n > 0 {
		fl = t.freeFlows[n-1]
		t.freeFlows = t.freeFlows[:n-1]
	} else {
		fl = &flight{}
		if t.prog != nil {
			fl.m = nn.NewMachine(t.prog.NumRegs)
			// Slot machines allocate activations from their own tape
			// arena, which must match the model dtype. It is read from the
			// build-time record, never from Param.Data: an engine worker
			// may be installing a snapshot into it right now.
			fl.m.Tape.SetDType(t.dtype)
		}
	}
	fl.mb = mb
	t.flows[s] = fl
	t.flowMu.Unlock()
}

// flight returns microbatch s's in-flight state.
func (h host) flight(s int) *flight {
	t := h.t
	t.flowMu.Lock()
	fl := t.flows[s]
	t.flowMu.Unlock()
	if fl == nil {
		panic(fmt.Sprintf("core: microbatch %d has no in-flight state (missing BeginMicro)", s))
	}
	return fl
}

// StageForward runs the stage's forward slot for microbatch s. Stage-split
// tasks execute the stage's op range on the microbatch's machine (stage 0
// resets the machine and binds the samples, so a second climb restarts the
// forward pass — the recompute path); monolithic tasks run their whole
// forward in the last stage's slot, by which point every stage's weights
// have been installed.
func (h host) StageForward(s, stage int) float64 {
	t := h.t
	fl := h.flight(s)
	last := t.clock.P - 1
	if t.prog == nil {
		if stage == last {
			return t.task.Forward(fl.mb)
		}
		return 0
	}
	if stage == 0 {
		fl.m.ResetRun()
		t.stageTask.BindMicro(fl.m, fl.mb)
	}
	t.prog.ForwardRange(fl.m, t.opLo[stage], t.opHi[stage])
	if stage == last {
		return fl.m.Loss
	}
	return 0
}

// StageBackward runs the stage's backward slot for microbatch s.
// Monolithic tasks run their whole backward in stage 0's slot, by which
// point every stage's backward weights have been (re-)installed.
func (h host) StageBackward(s, stage int) {
	t := h.t
	fl := h.flight(s)
	if t.prog == nil {
		if stage == 0 {
			t.task.Backward()
		}
		return
	}
	t.prog.BackwardRange(fl.m, t.opLo[stage], t.opHi[stage])
}

// EndMicro closes microbatch s and recycles its machine.
func (h host) EndMicro(s int) {
	t := h.t
	t.flowMu.Lock()
	if fl := t.flows[s]; fl != nil {
		delete(t.flows, s)
		fl.mb = nil
		t.freeFlows = append(t.freeFlows, fl)
	}
	t.flowMu.Unlock()
}

// BadLoss reports a non-finite or capped loss.
func (h host) BadLoss(loss float64) bool {
	return math.IsNaN(loss) || loss > h.t.cfg.LossCap
}

// PrepareStage averages the stage's gradients over the minibatch,
// snapshots the stage's pre-step weights for T2, and returns the stage's
// gradient sum-of-squares for clipping.
func (h host) PrepareStage(stage, nMicro int) float64 {
	t := h.t
	n := float64(nMicro)
	sumSq := 0.0
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		g := t.params[i].Grad
		g.DivScalar(n)
		sumSq += g.SumSq()
		if t.prev != nil {
			t.prev[i].CopyFrom(t.params[i].Data)
		}
	}
	return sumSq
}

// ClipScale converts the global gradient sum-of-squares into the clip
// factor, mirroring nn.ClipGradNorm's edge cases.
func (h host) ClipScale(sumSq float64) float64 {
	max := h.t.cfg.ClipNorm
	norm := math.Sqrt(sumSq)
	if max <= 0 || norm <= max || norm == 0 || math.IsNaN(norm) {
		return 1
	}
	return max / norm
}

// ScaleStage multiplies the stage's gradients by the clip factor.
func (h host) ScaleStage(stage int, scale float64) {
	t := h.t
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		t.params[i].Grad.ScaleInPlace(scale)
	}
}

// BeginStep advances the step clocks for the update being committed: the
// trainer's step counter and the optimizer's (Adam bias-correction) clock.
// The per-stage rates are computed at the pre-advance step index, exactly
// as the old monolithic step did.
func (h host) BeginStep() {
	t := h.t
	t.commitStep = t.step
	t.step++
	t.opt.Advance()
}

// StepStage applies the optimizer update to the stage's parameter range
// with that range's (T1) learning rates. Ranges are disjoint and the rate
// computation is pure given the step clock BeginStep advanced, so distinct
// stages step concurrently without any cross-stage arithmetic.
func (h host) StepStage(stage int) {
	t := h.t
	lo, hi := t.stageLo[stage], t.stageHi[stage]
	lrs := t.stageLRs[stage]
	t.ratesInto(lrs, t.commitStep, lo, hi)
	t.opt.StepRange(lo, hi, lrs)
}

// FinishStage zeroes the stage's gradients, updates the stage's T2
// accumulators, and pushes the stage's new weight version.
func (h host) FinishStage(stage int) {
	t := h.t
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		t.params[i].ZeroGrad()
		if t.delta != nil {
			pm := t.params[i]
			if pm.Data.DType() == tensor.Float32 {
				t2Update(tensor.F32(t.delta[i]), tensor.F32(t.corrected[i]),
					tensor.F32(pm.Data), tensor.F32(t.prev[i]), t.gamma[i], t.taus[i])
			} else {
				t2Update(tensor.F64(t.delta[i]), tensor.F64(t.corrected[i]),
					tensor.F64(pm.Data), tensor.F64(t.prev[i]), t.gamma[i], t.taus[i])
			}
		}
	}
	t.store.PushStage(stage)
}

// t2Update advances one parameter's T2 discrepancy accumulator in the
// parameter's own dtype, then refreshes the corrected backward weights:
// δ ← γδ + (1−γ)(w − w_prev) and u_bkwd = w − (τ_fwd − τ_bkwd)·δ.
func t2Update[T tensor.Elem](d, c, cur, prev []T, gamma, tau float64) {
	g := T(gamma)
	tt := T(tau)
	for j := range d {
		d[j] = g*d[j] + (1-g)*(cur[j]-prev[j])
	}
	for j := range c {
		c[j] = cur[j] - tt*d[j]
	}
}

// recompCorrect forms the recompute-corrected weights u_recomp =
// w_snap − coef·δ in the parameter's dtype.
func recompCorrect[T tensor.Elem](buf, snap, delta []T, coef float64) {
	cf := T(coef)
	for k := range buf {
		buf[k] = snap[k] - cf*delta[k]
	}
}

// --- replica surface (replica.Leader / replica.Member) ---

// Replicas returns the total replica count R (replica.Leader).
func (h host) Replicas() int { return len(h.t.followers) + 1 }

// Follower returns follower r's member surface (replica.Leader).
func (h host) Follower(r int) replica.Member { return h.t.followers[r-1] }

// Step returns the optimizer step clock (replica.Leader).
func (h host) Step() int { return h.t.step }

// Epoch returns the epoch clock (replica.Leader).
func (h host) Epoch() int { return h.t.epoch }

// SetStep aligns the step clock (replica.Member).
func (h host) SetStep(step int) { h.t.setStep(step) }

// setStep moves the optimizer step clock, keeping the optimizer's own
// update counter (AdamW bias correction) in lockstep when the full
// moment state is resident — the invariant a checkpoint restore or a
// leader push relies on.
func (t *Trainer) setStep(step int) {
	t.step = step
	if t.stateful != nil {
		t.stateful.SetClock(step)
	}
}

// SetEpoch aligns the epoch clock (replica.Member), so commit-phase
// learning rates (T1 annealing, T3 warmup phase) agree with the leader's.
func (h host) SetEpoch(epoch int) { h.t.epoch = epoch }

// CommitShards returns the stage→replica owner plan (replica.Leader) —
// the same plan the followers' optimizer moment shards were allocated
// from (shardOf), so the replica layer steps exactly the state each
// member holds.
func (h host) CommitShards() engine.CommitPlan { return h.t.plan }

// TakeStageGrads moves the stage's accumulated gradients into bufs and
// zeroes the accumulators, so the next microbatch accumulates from zero
// again. Buffers are allocated on first use and recycled by the caller.
func (h host) TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor {
	t := h.t
	lo, hi := t.stageLo[stage], t.stageHi[stage]
	if bufs == nil {
		bufs = make([]*tensor.Tensor, hi-lo)
		for j := range bufs {
			bufs[j] = tensor.NewLike(t.params[lo+j].Grad)
		}
	}
	for j, i := 0, lo; i < hi; i, j = i+1, j+1 {
		bufs[j].CopyFrom(t.params[i].Grad)
		t.params[i].Grad.Zero()
	}
	return bufs
}

// FoldStageGrads adds exported buffers into the stage's accumulators with
// exactly one add per element — the arithmetic of the replica layer's
// tree reduction, matching the nn accumulation contract (nn.Param.Grad)
// so the fold is bit-identical to direct serial accumulation.
func (h host) FoldStageGrads(stage int, bufs []*tensor.Tensor) {
	t := h.t
	for j, i := 0, t.stageLo[stage]; i < t.stageHi[stage]; i, j = i+1, j+1 {
		tensor.AddInto(t.params[i].Grad, bufs[j])
	}
}

// SetStageGrads overwrites the stage's gradient accumulators with bufs —
// the scatter half of the sharded commit: the leader's fully reduced
// minibatch gradient moves to the stage's owner as a pure copy, no
// arithmetic, so the owner's PrepareStage sees bitwise the gradient the
// leader-serial commit would have averaged.
func (h host) SetStageGrads(stage int, bufs []*tensor.Tensor) {
	t := h.t
	for j, i := 0, t.stageLo[stage]; i < t.stageHi[stage]; i, j = i+1, j+1 {
		t.params[i].Grad.CopyFrom(bufs[j])
	}
}

// StageState returns the stage's live post-step state tensors in the
// stageLayout order (optimizer moments included under the fault-tolerant
// layout). Callers must treat the slice and its tensors as read-only.
func (h host) StageState(stage int) []*tensor.Tensor {
	return h.t.stageState[stage]
}

// ImportStageState copies a stage's state from src (another replica's
// StageState) into this replica and pushes the stage's next weight
// version, mirroring the version push the source's FinishStage did so
// every replica's version queue replays the same history. It serves the
// commit's gather and the restore and join handoffs alike. A src that
// does not match the layout panics (the worker's serve loop turns that
// into an error reply).
func (h host) ImportStageState(stage int, src []*tensor.Tensor) {
	t := h.t
	dst := t.stageState[stage]
	if err := checkStage(dst, src); err != nil {
		panic(fmt.Sprintf("core: stage %d state: %v", stage, err))
	}
	for k, d := range dst {
		d.CopyFrom(src[k])
	}
	t.store.PushStage(stage)
}

// FaultTolerant reports whether this trainer runs the fault-tolerant
// stage-state layout (replica.FaultTolerer) — the precondition for
// evicting a failed member under the sharded commit.
func (h host) FaultTolerant() bool { return h.t.momentShare }

// EvictFollower removes follower replica r from the trainer and rebuilds
// the commit plan over the survivors (replica.Evictor). The replica
// group drives this — it splices its own member list and re-chunks in
// lockstep.
func (h host) EvictFollower(r int) {
	t := h.t
	t.followers = append(t.followers[:r-1], t.followers[r:]...)
	t.plan = t.commitPlan(len(t.followers) + 1)
}

// JoinFollower appends an admitted member as the last follower and
// rebuilds the commit plan over R+1 replicas (replica.Joiner) — the
// exact mirror of EvictFollower. The replica group drives this from its
// Admit, growing its member list in lockstep.
func (h host) JoinFollower(m replica.Member) {
	t := h.t
	t.followers = append(t.followers, m)
	t.plan = t.commitPlan(len(t.followers) + 1)
}

// RestoreVersions replaces a stage's weight-version ring (replica.Member)
// — the historical versions the asynchronous methods read. A ring the
// trainer could not train from (empty, or snapshots unlike the stage's
// masters) panics before the live ring is touched.
func (h host) RestoreVersions(stage, base int, snaps [][]*tensor.Tensor) {
	if err := h.t.checkRing(stage, base, snaps); err != nil {
		panic("core: " + err.Error())
	}
	h.t.store.RestoreStage(stage, base, snaps)
}

// The trainer's host satisfies the full replica surface.
var (
	_ replica.Leader       = host{}
	_ replica.FaultTolerer = host{}
	_ replica.Evictor      = host{}
	_ replica.Joiner       = host{}
)

// Run trains for the given number of epochs under ctx, recording one entry
// per epoch. Epochs accumulate across calls: warmup (T3) and divergence
// state persist, so Run can be called repeatedly to continue training.
// Training stops early (without error) when a loss diverges — check
// Run.Diverged — and stops with ctx.Err() when the context is cancelled;
// the recorded curve up to that point is always returned.
func (t *Trainer) Run(ctx context.Context, epochs int) (*metrics.Run, error) {
	return t.run(ctx, epochs, nil)
}

// RunInto is Run appending into an existing curve (nil allocates one).
func (t *Trainer) RunInto(ctx context.Context, epochs int, run *metrics.Run) (*metrics.Run, error) {
	return t.run(ctx, epochs, run)
}

// ctlTrack returns this trainer's control track (epoch marks, eval,
// checkpoint and fault events) — nil, hence inert, when tracing is off.
// Its single writer is the goroutine driving run(): the engines'
// orchestration (including the replicated engine's fault instants) runs
// on that same goroutine.
func (t *Trainer) ctlTrack() *trace.Track {
	return t.cfg.Trace.Track(t.cfg.TraceReplica, trace.TidControl, "control")
}

func (t *Trainer) run(ctx context.Context, epochs int, run *metrics.Run) (*metrics.Run, error) {
	if run == nil {
		run = &metrics.Run{}
	}
	h := host{t}
	if lc, ok := t.eng.(engine.Lifecycle); ok {
		lc.Start(h)
		defer lc.Stop()
	}
	for e := 0; e < epochs; e++ {
		if err := ctx.Err(); err != nil {
			return run, err
		}
		epochLoss, batches := 0.0, 0
		// The batch order is a pure function of (seed, epoch) — no RNG
		// state survives between epochs — so a restored run replays the
		// interrupted epoch's order exactly.
		epochRng := rand.New(rand.NewSource(epochSeed(t.cfg.Seed, t.epoch)))
		skip := t.resumeSkip
		t.resumeSkip = 0
		for _, batch := range data.Batches(t.task.NumTrain(), t.cfg.BatchSize, epochRng) {
			if len(batch) < t.cfg.BatchSize {
				continue // keep N constant; drop the final short batch
			}
			if skip > 0 {
				// Minibatches already committed before the checkpoint this
				// run restored from; their state is baked in.
				skip--
				continue
			}
			micros := data.Microbatches(batch, t.cfg.MicrobatchSize)
			loss, err := t.eng.Minibatch(ctx, h, micros)
			if errors.Is(err, engine.ErrDiverged) {
				t.diverged = true
				// Drop the partial minibatch's gradient accumulation so a
				// later Run does not fold it into its first step.
				nn.ZeroGrads(t.params)
				run.Record(math.Inf(1), 0, nn.ParamNorm(t.params))
				run.Diverged = true
				return run, nil
			}
			if err != nil {
				// Cancelled mid-minibatch: drop the partial gradient
				// accumulation so a later Run starts from a clean slate.
				nn.ZeroGrads(t.params)
				return run, err
			}
			t.micro += len(micros)
			epochLoss += loss
			batches++
			if err := t.maybeCheckpoint(); err != nil {
				return run, err
			}
			// Minibatch-boundary admission: rejoin drained standbys and
			// admit parked joiners here, on the run goroutine, after the
			// checkpoint hook — so membership changes never race a
			// collective or a checkpoint write, and a post-join curve is a
			// pure function of the handed-off state.
			if err := t.admitBoundary(); err != nil {
				return run, err
			}
		}
		ctl := t.ctlTrack()
		t0 := t.cfg.Trace.Now()
		metric := t.task.EvalTest()
		ctl.Span(trace.NameEval, t0, -1, -1, 0)
		run.Record(epochLoss/float64(batches), metric, nn.ParamNorm(t.params))
		t.epoch++
		ctl.Instant(trace.NameEpoch, -1, -1, 0)
		if t.observer != nil {
			t.observer(run.Epochs(), run)
		}
	}
	return run, nil
}
