package core_test

import (
	"context"
	"testing"

	"pipemare/internal/core"
	"pipemare/internal/data"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

// End-to-end trainer tests over real model tasks. They live in an
// external test package because package model implements core.Replicable
// (CloneTask) and therefore imports core.

func TestGPipeTrainerTrainsRealModel(t *testing.T) {
	d := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 256, Test: 64, Noise: 0.4, Seed: 1})
	task := model.NewResNetMLP(d, 16, 6, 2)
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	opt := optim.NewSGD(ps, 0.9, 5e-4)
	tr, err := core.New(task, opt, optim.Constant(0.05), core.Config{
		Method: core.GPipe, BatchSize: 32, MicrobatchSize: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := tr.Run(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if run.Diverged {
		t.Fatal("GPipe diverged")
	}
	if best := run.Best(); best < 80 {
		t.Fatalf("GPipe best accuracy %.1f%%, want ≥ 80%%", best)
	}
}

func TestPipeMareT1TrainsRealModelAtFineGranularity(t *testing.T) {
	// The headline behaviour: fully asynchronous fine-grained training
	// (one stage per weight group) converges once T1 is enabled.
	d := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 256, Test: 64, Noise: 0.4, Seed: 1})
	task := model.NewResNetMLP(d, 16, 6, 2)
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	opt := optim.NewSGD(ps, 0.9, 5e-4)
	tr, err := core.New(task, opt, optim.Constant(0.05), core.Config{
		Method: core.PipeMare, BatchSize: 32, MicrobatchSize: 8,
		T1K: 40, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := tr.Run(context.Background(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if run.Diverged {
		t.Fatal("PipeMare with T1 diverged")
	}
	if best := run.Best(); best < 75 {
		t.Fatalf("PipeMare+T1 best accuracy %.1f%%, want ≥ 75%%", best)
	}
}

func TestDivergenceIsDetected(t *testing.T) {
	d := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 128, Test: 32, Noise: 0.4, Seed: 1})
	task := model.NewResNetMLP(d, 16, 6, 2)
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	opt := optim.NewSGD(ps, 0.9, 0)
	// Absurdly large step size: must be caught, not crash.
	tr, err := core.New(task, opt, optim.Constant(50), core.Config{
		Method: core.PipeMare, BatchSize: 32, MicrobatchSize: 8, Seed: 1, LossCap: 1e4,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := tr.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Diverged || !tr.Diverged() {
		t.Fatal("divergence must be detected and recorded")
	}
}

// TestT1ImprovesHogwildAtHighDelay is Figure 19's claim: with large
// stochastic delays and an aggressive step size, T1 rescheduling yields a
// better (or at least as good) best metric than the unrescheduled
// baseline.
func TestT1ImprovesHogwildAtHighDelay(t *testing.T) {
	run := func(t1k int, seed int64) (float64, bool) {
		d := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 256, Test: 64, Noise: 0.4, Seed: 1})
		task := model.NewResNetMLP(d, 16, 5, 2)
		var ps []*nn.Param
		for _, g := range task.Groups() {
			ps = append(ps, g.Params...)
		}
		tr, err := core.New(task, optim.NewSGD(ps, 0.9, 0), optim.Constant(0.08), core.Config{
			Method: core.Hogwild, BatchSize: 32, MicrobatchSize: 8, T1K: t1k, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := tr.Run(context.Background(), 15)
		if err != nil {
			t.Fatal(err)
		}
		return r.Best(), r.Diverged
	}
	baseBest, baseDiv := run(0, 3)
	t1Best, t1Div := run(60, 3)
	if t1Div {
		t.Fatal("T1 run diverged")
	}
	if !baseDiv && t1Best < baseBest-2 {
		t.Fatalf("T1 best %.1f%% clearly below baseline %.1f%%", t1Best, baseBest)
	}
	if t1Best < 65 {
		t.Fatalf("T1 Hogwild best %.1f%%, want ≥ 65%%", t1Best)
	}
	t.Logf("best accuracy: %.1f%% without T1, %.1f%% with", baseBest, t1Best)
}

// TestHogwildTrainsRealModel pins that Appendix E's random delays (mean
// up to 0.8·24 updates at the first stage) still train a real model at a
// moderate step size, without T1.
func TestHogwildTrainsRealModel(t *testing.T) {
	d := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 256, Test: 64, Noise: 0.4, Seed: 1})
	task := model.NewResNetMLP(d, 16, 5, 2)
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	tr, err := core.New(task, optim.NewSGD(ps, 0.9, 0), optim.Constant(0.02), core.Config{
		Method: core.Hogwild, BatchSize: 32, MicrobatchSize: 8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := tr.Run(context.Background(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if run.Diverged {
		t.Fatal("Hogwild diverged")
	}
	if best := run.Best(); best < 70 {
		t.Fatalf("Hogwild best accuracy %.1f%%, want ≥ 70%%", best)
	}
}
