package pipemare_test

import (
	"context"
	"strings"
	"testing"

	"pipemare"
	"pipemare/internal/nn"
)

// newOptionProbeTask returns a tiny quadratic task suitable for exercising
// New's validation paths.
func newOptionProbeTask() pipemare.Task { return newQuadTask(4, 64, 8, 1) }

func TestOptionValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opt  pipemare.Option
		frag string // expected error fragment
	}{
		{"method", pipemare.WithMethod(pipemare.Method(42)), "unknown method"},
		{"stages", pipemare.WithStages(-1), "stages"},
		{"batch", pipemare.WithBatchSize(0), "batch size"},
		{"microbatches", pipemare.WithMicrobatches(0), "microbatches"},
		{"microbatchSize", pipemare.WithMicrobatchSize(-2), "microbatch size"},
		{"partition", pipemare.WithPartition(pipemare.PartitionMode(9)), "partition mode"},
		{"groupcosts-empty", pipemare.WithGroupCosts(nil), "group costs"},
		{"t1", pipemare.WithT1(-1), "T1"},
		{"t2-negative", pipemare.WithT2(-0.1), "T2"},
		{"t2-above-one", pipemare.WithT2(1.0), "T2"},
		{"t3", pipemare.WithT3(-1), "warmup"},
		{"recompute", pipemare.WithRecompute(-1), "recompute"},
		{"optimizer", pipemare.WithOptimizer(nil), "optimizer"},
		{"schedule", pipemare.WithSchedule(nil), "schedule"},
		{"engine", pipemare.WithEngine(nil), "engine"},
		{"clip", pipemare.WithClipNorm(-1), "clip"},
		{"losscap", pipemare.WithLossCap(0), "loss cap"},
		{"observer", pipemare.WithObserver(nil), "observer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := pipemare.New(newOptionProbeTask(), c.opt)
			if err == nil {
				t.Fatalf("option %s: expected an error", c.name)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("option %s: error %q does not mention %q", c.name, err, c.frag)
			}
		})
	}
}

// TestHogwildRejectsUnsupportedCombinations pins the combinations the
// Hogwild method cannot honour: recompute reads versions off the Table 1
// clock, and remote members (WithTransport followers, WithElastic
// joiners) never see the seed the delay draw depends on.
func TestHogwildRejectsUnsupportedCombinations(t *testing.T) {
	_, dial := pipemare.Loopback()
	cases := []struct {
		name string
		opts []pipemare.Option
		frag string // expected error fragment
	}{
		{"recompute", []pipemare.Option{pipemare.WithRecompute(2)}, "recompute"},
		{"transport", []pipemare.Option{pipemare.WithTransport(dial)}, "in-process replicas"},
		{"elastic", []pipemare.Option{pipemare.WithReplicas(2), pipemare.WithElastic()}, "in-process replicas"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := append([]pipemare.Option{pipemare.WithMethod(pipemare.Hogwild)}, c.opts...)
			_, err := pipemare.New(newOptionProbeTask(), opts...)
			if err == nil || !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("Hogwild with %s: err = %v, want one mentioning %q", c.name, err, c.frag)
			}
		})
	}
	if _, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithMethod(pipemare.Hogwild), pipemare.WithReplicas(2)); err != nil {
		t.Fatalf("Hogwild with in-process replicas: %v", err)
	}
}

func TestOptionCrossValidation(t *testing.T) {
	if _, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithBatchSize(10), pipemare.WithMicrobatches(4)); err == nil {
		t.Fatal("batch 10 with N=4 must error (not divisible)")
	}
	if _, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithMicrobatches(4), pipemare.WithMicrobatchSize(8)); err == nil {
		t.Fatal("WithMicrobatches and WithMicrobatchSize together must error")
	}
	if _, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithMicrobatchSize(8), pipemare.WithMicrobatches(4)); err == nil {
		t.Fatal("WithMicrobatchSize then WithMicrobatches must error")
	}
	if _, err := pipemare.New(newOptionProbeTask(), pipemare.WithStages(99)); err == nil {
		t.Fatal("more stages than weight groups must error")
	}
	if _, err := pipemare.New(newOptionProbeTask(), nil); err == nil {
		t.Fatal("a nil Option must error")
	}
	if _, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithOptimizer(func([]*nn.Param) pipemare.Optimizer { return nil })); err == nil {
		t.Fatal("a factory returning nil must error")
	}
	if _, err := pipemare.New(newOptionProbeTask(), pipemare.WithBatchSize(128)); err == nil {
		t.Fatal("batch larger than the training set must error")
	}
	// Explicit group costs require a cost-driven partition mode …
	if _, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithGroupCosts([]float64{1, 1, 1, 1})); err == nil ||
		!strings.Contains(err.Error(), "partition mode") {
		t.Fatal("group costs without WithPartition(cost|profile) must error")
	}
	// … and must match the task's group count.
	if _, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithPartition(pipemare.PartitionCost),
		pipemare.WithGroupCosts([]float64{1, 2})); err == nil ||
		!strings.Contains(err.Error(), "weight groups") {
		t.Fatal("group-cost length mismatch must error")
	}
}

// TestWithShardedStepValidation pins the facade validation of the
// replica-sharded commit: requiring it without replicas (or with an
// engine that cannot drive replicas at all) must fail, disabling it must
// fall back to the leader-serial commit, and the default engages it for
// R > 1 with a shardable optimizer.
func TestWithShardedStepValidation(t *testing.T) {
	if _, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithShardedStep(true)); err == nil ||
		!strings.Contains(err.Error(), "replicas") {
		t.Fatalf("WithShardedStep(true) without WithReplicas: err = %v", err)
	}
	if _, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithReplicas(2), pipemare.WithShardedStep(true),
		pipemare.WithEngine(pipemare.NewReferenceEngine())); err == nil ||
		!strings.Contains(err.Error(), "replica-aware") {
		t.Fatalf("sharded step atop a non-replica-aware engine: err = %v", err)
	}
	tr, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithReplicas(2), pipemare.WithShardedStep(false))
	if err != nil {
		t.Fatal(err)
	}
	if tr.ShardedStep() {
		t.Fatal("WithShardedStep(false) did not disable the sharded commit")
	}
	tr, err = pipemare.New(newOptionProbeTask(), pipemare.WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.ShardedStep() {
		t.Fatal("default (auto) did not shard the commit for R=2 with momentum SGD")
	}
}

func TestWithPartitionConfiguresTrainer(t *testing.T) {
	tr, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithStages(2),
		pipemare.WithPartition(pipemare.PartitionCost),
		pipemare.WithGroupCosts([]float64{10, 1, 1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if tr.PartitionMode() != pipemare.PartitionCost {
		t.Fatalf("mode = %v, want cost", tr.PartitionMode())
	}
	// The heavy group must sit alone on stage 0.
	if got := tr.Partition().StageOf; got[0] != 0 || got[1] != 1 {
		t.Fatalf("StageOf = %v, want heavy group isolated", got)
	}
	if im := tr.StageImbalance(); im <= 1 {
		t.Fatalf("imbalance = %g, want > 1 for skewed costs", im)
	}
	if _, err := tr.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsConfigureTrainer(t *testing.T) {
	tr, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithStages(2),
		pipemare.WithBatchSize(16),
		pipemare.WithMicrobatches(8),
		pipemare.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stages() != 2 {
		t.Fatalf("stages = %d, want 2", tr.Stages())
	}
	if tr.Microbatches() != 8 {
		t.Fatalf("microbatches = %d, want 8", tr.Microbatches())
	}
	if tr.Engine().Name() != "reference" {
		t.Fatalf("default engine = %q, want reference", tr.Engine().Name())
	}
	// τ_fwd of the first stage must follow Table 1 for P=2, N=8.
	if got, want := tr.Taus()[0], pipemare.FwdDelay(1, 2, 8); got != want {
		t.Fatalf("τ_fwd[0] = %g, want %g", got, want)
	}
}

func TestDefaultsTrainOutOfTheBox(t *testing.T) {
	// Zero options: GPipe, fine-grained stages, batch 32, N=4, momentum
	// SGD at a constant rate.
	tr, err := pipemare.New(newOptionProbeTask())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stages() != 4 || tr.Microbatches() != 4 {
		t.Fatalf("defaults: stages=%d N=%d, want 4 and 4", tr.Stages(), tr.Microbatches())
	}
	run, err := tr.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if run.Epochs() != 3 || run.Diverged {
		t.Fatalf("default run: epochs=%d diverged=%v", run.Epochs(), run.Diverged)
	}
	// The quadratic must make progress toward its targets.
	if run.Loss[2] >= run.Loss[0] {
		t.Fatalf("loss did not decrease: %v", run.Loss)
	}
}

// nonReplicableTask hides quadTask's CloneTask so WithReplicas validation
// can be exercised against a task without replica support.
type nonReplicableTask struct{ *quadTask }

// CloneTask is shadowed away: embed the quadTask but do not forward the
// method with the Replicable signature.
func (nonReplicableTask) CloneTask() {}

func TestWithReplicasValidation(t *testing.T) {
	// R < 1 fails eagerly in the option.
	if _, err := pipemare.New(newOptionProbeTask(), pipemare.WithReplicas(0)); err == nil ||
		!strings.Contains(err.Error(), "replicas") {
		t.Fatalf("WithReplicas(0) error = %v, want a replicas error", err)
	}
	// R must not exceed the microbatch count N.
	_, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4), pipemare.WithReplicas(8))
	if err == nil || !strings.Contains(err.Error(), "microbatches") {
		t.Fatalf("R=8 > N=4 error = %v, want a microbatches error", err)
	}
	// The task must implement Replicable.
	_, err = pipemare.New(nonReplicableTask{newQuadTask(4, 64, 8, 1)},
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4), pipemare.WithReplicas(2))
	if err == nil || !strings.Contains(err.Error(), "Replicable") {
		t.Fatalf("non-replicable task error = %v, want a Replicable error", err)
	}
	// A non-replica-aware engine is refused: it would silently train only
	// the leader.
	_, err = pipemare.New(newOptionProbeTask(),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4), pipemare.WithReplicas(2),
		pipemare.WithEngine(pipemare.NewReferenceEngine()))
	if err == nil || !strings.Contains(err.Error(), "replica-aware") {
		t.Fatalf("plain-engine error = %v, want a replica-aware error", err)
	}
	// R = 1 is valid with any engine, and R ≤ N with the default
	// (replicated) engine builds and reports its followers.
	tr, err := pipemare.New(newOptionProbeTask(),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4), pipemare.WithReplicas(4))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Replicas() != 4 {
		t.Fatalf("trainer reports %d replicas, want 4", tr.Replicas())
	}
	if _, err := tr.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}
