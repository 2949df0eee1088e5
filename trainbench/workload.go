package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/engine/replicated"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

// workload is one benchmark configuration. Every workload trains the
// PipeMare method (T1+T2, clip 5, AdamW) on the engine-benchmark
// transformer (dim 128, 2+2 layers, batch 32, 8 microbatches) in a closed
// loop: one trainer drives minibatches back to back.
type workload struct {
	name string

	stages     int
	dtype      pipemare.DType
	concurrent bool // concurrent engine, up to 2 workers, 1 kernel goroutine each; else Reference
	costSplit  bool // cost-balanced partition; else even
	recompute  bool // Appendix D recompute path, one segment
	replicas   int  // > 1: followers served over pipemare.Loopback
	checkpoint bool // checkpoint every ckptEvery steps into a temp dir

	// epochS is the workload's epoch time on the reference host (2-CPU
	// Xeon, Go 1.24). A run trains a fixed number of timed epochs sized
	// from it and --seconds, so the loss a run ends on repeats exactly.
	epochS float64
}

const ckptEvery = 4 // two checkpoint writes per 8-minibatch epoch

// The workloads, and why each exists (METRICS.md has the full table).
var workloads = []workload{
	{
		// The fine-grained asynchronous pipeline: f32 kernels, stage slots,
		// engine scheduling and recompute installs; no replicas, wire or
		// checkpoints.
		name:   "pipe-f32-p8",
		stages: 8, dtype: pipemare.Float32, concurrent: true, costSplit: true, recompute: true, replicas: 1,
		epochS: 1.05,
	},
	{
		// R=2 data parallelism through the framed wire codec and the
		// sharded commit; no concurrent engine, recompute or checkpoints.
		name:   "replica-loopback",
		stages: 4, dtype: pipemare.Float64, replicas: 2,
		epochS: 2.1,
	},
	{
		// replica-loopback's curve at R=1 plus two checkpoint writes per
		// epoch and a restore, so only checkpoint changes separate the two.
		name:   "ckpt-restore",
		stages: 4, dtype: pipemare.Float64, replicas: 1, checkpoint: true,
		epochS: 2.0,
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Engine-benchmark transformer and dataset sizes.
const (
	vocab      = 13
	srcLen     = 6
	tgtLen     = srcLen + 1 // BOS + content
	trainSize  = 256
	testSize   = 32
	batchSize  = 32
	microbatch = 8
	modelDim   = 128
)

// newTask builds the transformer task from the seed: the dataset and the
// initial weights are pure functions of it. Leader and followers each
// build their own, identical, copy.
func newTask(seed int64) pipemare.Task {
	ds := data.NewTranslation(data.TranslationConfig{
		Vocab: vocab, SrcLen: srcLen, Train: trainSize, Test: testSize, Seed: seed})
	return model.NewTranslation(ds, model.TransformerConfig{
		Dim: modelDim, Heads: 4, EncLayers: 2, DecLayers: 2, Seed: seed + 1})
}

// recipe returns the training options every trainer of the workload —
// leader, follower and correctness oracle — shares: the engine-benchmark
// PipeMare recipe plus the workload's stages, dtype, partition and
// recompute setting.
func (w workload) recipe(seed int64) []pipemare.Option {
	opts := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithStages(w.stages),
		pipemare.WithBatchSize(batchSize), pipemare.WithMicrobatches(microbatch),
		pipemare.WithT1(100), pipemare.WithT2(0.1), pipemare.WithClipNorm(5),
		pipemare.WithSeed(seed),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
		}),
		pipemare.WithSchedule(optim.WarmupInvSqrt{Peak: 3e-3, Init: 1e-7, Warmup: 100}),
		pipemare.WithDType(w.dtype),
	}
	if w.costSplit {
		opts = append(opts, pipemare.WithPartition(pipemare.PartitionCost))
	}
	if w.recompute {
		opts = append(opts, pipemare.WithRecompute(1))
	}
	return opts
}

// workers is the concurrent engine's worker count: 2, capped at the
// host's CPU count so compute goroutines never exceed nproc.
func workers() int { return min(2, runtime.NumCPU()) }

// lanes is how many goroutines compute at once in the workload: the
// concurrent engine's workers, or one per replica.
func (w workload) lanes() int {
	if w.concurrent {
		return workers()
	}
	return w.replicas
}

// session is one set-up trainer of a workload, with the followers it
// drives and, when traced, the recorder and probe observing it.
type session struct {
	tr      *pipemare.Trainer
	rec     *pipemare.TraceRecorder // nil when untraced
	probe   *probe                  // nil when untraced
	ckptDir string                  // "" without checkpoints

	cancel context.CancelFunc
	serve  sync.WaitGroup
	errs   []error // one per follower, valid after serve.Wait
	closed bool
}

// open sets up a trainer of the workload and trains its discarded
// warm-up epoch. ckptDir is used when the workload checkpoints. With
// traced set, the trainer records a trace and every engine, host and
// dialer is wrapped by the benchmark's probes.
func (w workload) open(seed int64, ckptDir string, traced bool) (*session, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &session{cancel: cancel}
	opts := w.recipe(seed)
	if traced {
		s.rec = pipemare.NewTraceRecorder()
		s.probe = &probe{}
		opts = append(opts, pipemare.WithTrace(s.rec))
	}
	wrap := func(e engine.Engine, outer bool) engine.Engine {
		if s.probe == nil {
			return e
		}
		return newTimedEngine(e, s.probe, outer)
	}
	switch {
	case w.replicas > 1:
		s.errs = make([]error, w.replicas-1)
		var dialers []pipemare.Dialer
		for i := range s.errs {
			lis, dial := pipemare.Loopback()
			if s.probe != nil {
				dial = timedDialer{d: dial, p: s.probe}
			}
			dialers = append(dialers, dial)
			fopts := append(w.recipe(seed), pipemare.WithEngine(wrap(pipemare.NewReferenceEngine(), false)))
			s.serve.Add(1)
			go func() {
				defer s.serve.Done()
				s.errs[i] = pipemare.ServeFollower(ctx, lis, newTask(seed), fopts...)
			}()
		}
		rep := replicated.New(replicated.WithInner(func() engine.Engine {
			return wrap(pipemare.NewReferenceEngine(), false)
		}))
		var eng pipemare.Engine = rep
		if s.probe != nil {
			eng = timedReplicated{Engine: rep, p: s.probe}
		}
		opts = append(opts, pipemare.WithReplicas(w.replicas),
			pipemare.WithTransport(dialers...), pipemare.WithEngine(eng))
	case w.concurrent:
		// One kernel goroutine per worker: the engine's default kernel
		// parallelism (GOMAXPROCS per worker) would run 2·nproc compute
		// goroutines.
		eng := concurrent.New(concurrent.WithWorkers(workers()), concurrent.WithKernelWorkers(1))
		opts = append(opts, pipemare.WithEngine(wrap(eng, true)))
	default:
		opts = append(opts, pipemare.WithEngine(wrap(pipemare.NewReferenceEngine(), true)))
	}
	if w.checkpoint {
		s.ckptDir = ckptDir
		opts = append(opts, pipemare.WithCheckpoint(ckptDir, ckptEvery))
	}
	tr, err := pipemare.New(newTask(seed), opts...)
	if err != nil {
		s.cancel()
		s.serve.Wait()
		return nil, err
	}
	s.tr = tr
	if _, err := s.epoch(); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up epoch: %w", err)
	}
	return s, nil
}

// epoch trains one epoch and returns its training loss. A divergence is
// an error: every workload is chosen to train without one.
func (s *session) epoch() (float64, error) { return trainEpoch(s.tr) }

func trainEpoch(tr *pipemare.Trainer) (float64, error) {
	run, err := tr.Run(context.Background(), 1)
	if err != nil {
		return 0, err
	}
	if run.Diverged || run.Epochs() != 1 {
		return 0, errors.New("training diverged")
	}
	return run.Loss[0], nil
}

// close releases the trainer and its followers and waits for every
// follower goroutine to return. It is safe to call more than once.
func (s *session) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.tr.Close() // says goodbye: every follower returns
	s.serve.Wait()
	s.cancel()
	return errors.Join(append([]error{err}, s.errs...)...)
}

// oracleLoss trains a single-replica Reference-engine trainer of the
// workload's configuration and seed — no replicas, no checkpoints — and
// returns the loss of its first epoch after warm-up: the value every
// workload's first timed epoch must equal bit for bit.
func (w workload) oracleLoss(seed int64) (float64, error) {
	opts := append(w.recipe(seed), pipemare.WithEngine(pipemare.NewReferenceEngine()))
	tr, err := pipemare.New(newTask(seed), opts...)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	run, err := tr.Run(context.Background(), 2)
	if err != nil {
		return 0, err
	}
	if run.Diverged || run.Epochs() != 2 {
		return 0, errors.New("oracle diverged")
	}
	return run.Loss[1], nil
}
