package pipemare_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pipemare"
	"pipemare/internal/faults"
	"pipemare/internal/optim"
	"pipemare/internal/transport"
)

// ftBase is the shared recipe of the fault-tolerance suite: the
// all-techniques PipeMare configuration on the 4-stage quadratic task,
// 4 minibatches per epoch (train 32, batch 8), 8 microbatches so three
// replicas each own a non-empty chunk.
func ftBase() []pipemare.Option {
	return append(methodOpts(pipemare.PipeMare),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(8),
		pipemare.WithSchedule(optim.Constant(0.05)))
}

// sliceRun copies epochs [lo, hi) of a recorded curve, so a resumed
// run's entries can be compared against the matching reference window
// with requireIdentical.
func sliceRun(r *pipemare.Run, lo, hi int) *pipemare.Run {
	return &pipemare.Run{Loss: r.Loss[lo:hi], Metric: r.Metric[lo:hi],
		ParamNorm: r.ParamNorm[lo:hi], Diverged: r.Diverged}
}

// runWithin guards against the one failure mode eviction must never
// have: a hang. f runs in its own goroutine; a run that neither
// completes nor errors within d fails the test.
func runWithin(t *testing.T, d time.Duration, name string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s: neither completed nor errored within %v (deadlock)", name, d)
		return nil
	}
}

// TestEvictionMatchesFreshSmallerRun is the headline fault-tolerance
// pin, in both commit modes: killing follower replica 2's link on its
// 6th chunk (epoch 2, minibatch 2 of an R=3 loopback run) must evict
// exactly that replica, replay the interrupted minibatch over the two
// survivors, and finish training with a curve bit-identical to the
// fault-free single-replica reference — the determinism invariant makes
// the post-eviction R=2 group indistinguishable from a run that never
// had a third replica. A fresh R=2 trainer restored from the checkpoint
// written just before the faulted minibatch must then retrace the same
// curve, pinning that "evicted run" ≡ "fresh smaller run from the
// checkpoint" end to end.
func TestEvictionMatchesFreshSmallerRun(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 21) }
	base := ftBase()
	ref := runCurve(t, build, 4, 1, base...)
	for _, sharded := range []bool{false, true} {
		name := fmt.Sprintf("evict/sharded=%t", sharded)
		dir := t.TempDir()
		dialers, _, wait := startWorkers(t, 2, build, func() []pipemare.Option { return base })
		dialers[1] = &faults.Dialer{Inner: dialers[1], Script: faults.NewScript(
			faults.Rule{Dir: faults.Send, Type: transport.MsgRunChunk, Nth: 6, Op: faults.Kill})}
		tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
			pipemare.WithReplicas(3), pipemare.WithShardedStep(sharded),
			pipemare.WithFaultTolerance(),
			pipemare.WithCheckpoint(dir, 1),
			pipemare.WithTransport(dialers...))...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := tr.Run(context.Background(), 4)
		if err != nil {
			t.Fatalf("%s: run did not survive the eviction: %v", name, err)
		}
		if tr.Replicas() != 2 {
			t.Fatalf("%s: %d replicas after the fault, want 2 (one evicted)", name, tr.Replicas())
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		errs := wait()
		if errs[0] != nil {
			t.Fatalf("%s: surviving worker: %v", name, errs[0])
		}
		if errs[1] == nil {
			t.Fatalf("%s: killed worker's serve loop ended without error", name)
		}
		requireIdentical(t, name, ref, got)

		// The fault hit epoch 2, minibatch 2 — so the step-5 checkpoint
		// (epoch 2, minibatch 1) predates it. A fresh R=2 trainer restored
		// from that file resumes mid-epoch: it reruns minibatches 2–4 of
		// epoch 2 and the remaining epochs. The partial epoch's averaged
		// loss covers 3 of 4 minibatches (not comparable), but its
		// end-of-epoch metric and parameter norm — functions of the state
		// alone — and every later epoch must match the reference exactly.
		tr2, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
			pipemare.WithReplicas(2), pipemare.WithShardedStep(sharded),
			pipemare.WithFaultTolerance())...)
		if err != nil {
			t.Fatalf("%s: fresh R=2 trainer: %v", name, err)
		}
		if err := tr2.RestoreFrom(filepath.Join(dir, "ckpt-00000005.pm")); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		tail, err := tr2.Run(context.Background(), 3)
		if err != nil {
			t.Fatalf("%s: restored run: %v", name, err)
		}
		if tail.Epochs() != 3 {
			t.Fatalf("%s: restored run recorded %d epochs, want 3", name, tail.Epochs())
		}
		for e := 0; e < 3; e++ {
			if tail.Metric[e] != ref.Metric[e+1] || tail.ParamNorm[e] != ref.ParamNorm[e+1] {
				t.Fatalf("%s: restored epoch %d state (metric %v, norm %v) != reference (%v, %v)",
					name, e, tail.Metric[e], tail.ParamNorm[e], ref.Metric[e+1], ref.ParamNorm[e+1])
			}
			if e > 0 && tail.Loss[e] != ref.Loss[e+1] {
				t.Fatalf("%s: restored epoch %d loss %v != reference %v", name, e, tail.Loss[e], ref.Loss[e+1])
			}
		}
	}
}

// TestTransientFaultsRecoverWithZeroDeviation pins the retry layer:
// send-side drops — the request provably never reached the peer — and
// delays on the leader→worker link must be absorbed by bounded resends
// with no eviction and a curve bit-identical to the fault-free
// reference.
func TestTransientFaultsRecoverWithZeroDeviation(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 22) }
	base := ftBase()
	ref := runCurve(t, build, 3, 1, base...)
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	dialers[0] = &faults.Dialer{Inner: dialers[0], Script: faults.NewScript(
		faults.Rule{Dir: faults.Send, Type: transport.MsgRunChunk, Nth: 2, Op: faults.Drop},
		faults.Rule{Dir: faults.Send, Type: transport.MsgSetState, Nth: 3, Op: faults.Drop},
		faults.Rule{Dir: faults.Send, Type: transport.MsgRunChunk, Nth: 5, Op: faults.Delay, Delay: 5 * time.Millisecond})}
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithShardedStep(false), pipemare.WithFaultTolerance(),
		pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Run(context.Background(), 3)
	if err != nil {
		t.Fatalf("transient faults were not absorbed: %v", err)
	}
	if tr.Replicas() != 2 {
		t.Fatalf("%d replicas after transient faults, want 2 (no eviction)", tr.Replicas())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for i, werr := range wait() {
		if werr != nil {
			t.Fatalf("worker %d: %v", i+1, werr)
		}
	}
	requireIdentical(t, "transient-faults", ref, got)
}

// TestCrashMidCollectiveNeverDeadlocks kills a follower's link on the
// 2nd message of each collective that crosses the wire — scatter,
// sharded pre-step, step, gather, broadcast, clock sync — in every
// commit mode, under -race. The contract is eviction (run completes
// over the survivors) or a clean error naming the replica; never a
// hang. The sharded commit without fault tolerance is pinned to the
// clean-error side: the dead owner's moment shard is gone, so eviction
// is not sound there.
func TestCrashMidCollectiveNeverDeadlocks(t *testing.T) {
	cases := []struct {
		name        string
		typ         byte
		sharded, ft bool
	}{
		{"serial/broadcast", transport.MsgSetState, false, true},
		{"serial/clock-sync", transport.MsgSync, false, true},
		{"sharded/scatter", transport.MsgSetGrads, true, true},
		{"sharded/prepare", transport.MsgPrepare, true, true},
		{"sharded/step", transport.MsgStep, true, true},
		{"sharded/gather", transport.MsgGetState, true, true},
		{"sharded/broadcast", transport.MsgSetState, true, true},
		{"sharded/scatter/no-ft", transport.MsgSetGrads, true, false},
	}
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 23) }
	base := ftBase()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dialers, _, wait := startWorkers(t, 2, build, func() []pipemare.Option { return base })
			dialers[0] = &faults.Dialer{Inner: dialers[0], Script: faults.NewScript(
				faults.Rule{Dir: faults.Send, Type: tc.typ, Nth: 2, Op: faults.Kill})}
			opts := append(append([]pipemare.Option{}, base...),
				pipemare.WithReplicas(3), pipemare.WithShardedStep(tc.sharded),
				pipemare.WithTransport(dialers...))
			if tc.ft {
				opts = append(opts, pipemare.WithFaultTolerance())
			}
			tr, err := pipemare.New(build(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			err = runWithin(t, 60*time.Second, tc.name, func() error {
				_, err := tr.Run(context.Background(), 2)
				return err
			})
			switch {
			case err == nil && tr.Replicas() != 2:
				t.Fatalf("run completed with %d replicas — the killed link neither evicted nor errored", tr.Replicas())
			case err != nil && !strings.Contains(err.Error(), "replica 1"):
				t.Fatalf("error %q does not name the failed replica", err)
			case err != nil && tc.ft && !tc.sharded:
				// Serial-commit failures are always evictable; an error here
				// means the eviction path regressed.
				t.Fatalf("serial commit aborted instead of evicting: %v", err)
			case err == nil && !tc.ft && tc.sharded:
				t.Fatal("sharded commit without fault tolerance evicted; the dead owner's moments were unrecoverable")
			}
			tr.Close()
			wait() // the killed worker errors by design; the point is both exit
		})
	}
}

// TestCheckpointRestoreResumesBitIdentical pins checkpoint/restore at an
// epoch boundary, for the PipeMare and Hogwild methods: a run
// checkpointed every 4 steps (one
// epoch) for 3 epochs, restored via pipemare.Restore into a fresh
// trainer, must retrace epochs 4–6 of the uninterrupted reference
// exactly — loss, metric and parameter norm. The restored replica count
// also shrinks from 3 (in-process) to 2, exercising the elastic-
// membership claim without a transport in the loop.
func TestCheckpointRestoreResumesBitIdentical(t *testing.T) {
	recipes := []struct {
		name string
		base []pipemare.Option
	}{
		{"pipemare", ftBase()},
		// Hogwild's delay draw is a pure function of (seed, minibatch,
		// stage), so the restored clocks and ring alone replay it.
		{"hogwild", append(methodOpts(pipemare.Hogwild),
			pipemare.WithBatchSize(8), pipemare.WithMicrobatches(8),
			pipemare.WithSchedule(optim.Constant(0.05)))},
	}
	for _, rc := range recipes {
		base := rc.base
		t.Run(rc.name, func(t *testing.T) {
			build := func() pipemare.Task { return newQuadTask(4, 32, 8, 24) }
			ref := runCurve(t, build, 6, 1, base...)
			dir := t.TempDir()
			tr1, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
				pipemare.WithReplicas(3), pipemare.WithShardedStep(false),
				pipemare.WithCheckpoint(dir, 4))...)
			if err != nil {
				t.Fatal(err)
			}
			head, err := tr1.Run(context.Background(), 3)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "checkpointed-head", sliceRun(ref, 0, 3), head)
			if writes, ns := tr1.CheckpointStats(); writes != 3 || ns <= 0 {
				t.Fatalf("checkpoint stats (%d writes, %dns), want 3 writes and positive time", writes, ns)
			}
			if err := tr1.Close(); err != nil {
				t.Fatal(err)
			}
			tr2, err := pipemare.Restore(dir, build(), append(append([]pipemare.Option{}, base...),
				pipemare.WithReplicas(2), pipemare.WithShardedStep(false),
				pipemare.WithCheckpoint(dir, 4))...)
			if err != nil {
				t.Fatal(err)
			}
			defer tr2.Close()
			tail, err := tr2.Run(context.Background(), 3)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "restored-tail", sliceRun(ref, 3, 6), tail)
		})
	}
}

// TestRestoreLatestSkipsCorruptCheckpoint pins restore robustness: a
// corrupted newest checkpoint (one flipped payload byte, caught by the
// frame CRC) must not half-apply — RestoreLatest falls back to the next
// older file and reports its step; with every file damaged it returns
// an error and leaves the trainer untouched.
func TestRestoreLatestSkipsCorruptCheckpoint(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 25) }
	base := ftBase()
	dir := t.TempDir()
	tr1, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithCheckpoint(dir, 1))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr1.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	// corrupt flips one payload byte at off — distinct offsets below, so
	// re-corrupting an already-damaged file never XORs it back to valid.
	corrupt := func(path string, off func(n int) int) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[off(len(b))] ^= 0x40
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(filepath.Join(dir, "ckpt-00000008.pm"), func(n int) int { return n / 2 })
	tr2, err := pipemare.New(build(), base...)
	if err != nil {
		t.Fatal(err)
	}
	step, err := tr2.RestoreLatest(dir)
	if err != nil {
		t.Fatalf("restore with one corrupt file: %v", err)
	}
	if step != 7 {
		t.Fatalf("restored step %d, want 7 (the newest valid checkpoint)", step)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		corrupt(f, func(n int) int { return n / 3 })
	}
	if _, err := tr2.RestoreLatest(dir); err == nil {
		t.Fatal("restore succeeded although every checkpoint is corrupt")
	}
}

// TestHeartbeatEvictsHungPeer pins hung-peer detection: a worker that
// stops replying without its connection dying is invisible to I/O
// errors — only the liveness window catches it. With a 10ms heartbeat
// the leader declares the peer dead after 10 silent intervals, evicts
// it, and finishes training bit-identically to the reference.
func TestHeartbeatEvictsHungPeer(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 26) }
	base := ftBase()
	ref := runCurve(t, build, 2, 1, base...)
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	// Hang the leader's read of the worker's 3rd chunk reply: the reply
	// arrives but the link then blocks until the liveness window expires.
	dialers[0] = &faults.Dialer{Inner: dialers[0], Script: faults.NewScript(
		faults.Rule{Dir: faults.Recv, Type: transport.MsgChunkDone, Nth: 3, Op: faults.Hang})}
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithShardedStep(false), pipemare.WithFaultTolerance(),
		pipemare.WithHeartbeat(10*time.Millisecond),
		pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	var got *pipemare.Run
	err = runWithin(t, 60*time.Second, "hung-peer", func() error {
		r, err := tr.Run(context.Background(), 2)
		got = r
		return err
	})
	if err != nil {
		t.Fatalf("hung peer was not evicted: %v", err)
	}
	if tr.Replicas() != 1 {
		t.Fatalf("%d replicas after the hang, want 1", tr.Replicas())
	}
	requireIdentical(t, "hung-peer", ref, got)
	tr.Close()
	wait() // the hung worker's serve loop ends in an error by design
}

// TestCloseIdempotent pins the Close contract: closing twice — after a
// successful run and after a failed one — returns nil the second time
// and never panics or double-releases followers.
func TestCloseIdempotent(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 27) }
	base := ftBase()
	tr, err := pipemare.New(build(), base...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Close after a failed Run: a killed link under the non-tolerant
	// sharded commit aborts the run; the trainer must still close, and
	// close again as a no-op.
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	dialers[0] = &faults.Dialer{Inner: dialers[0], Script: faults.NewScript(
		faults.Rule{Dir: faults.Send, Type: transport.MsgRunChunk, Nth: 2, Op: faults.Kill})}
	tr2, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithShardedStep(true), pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Run(context.Background(), 2); err == nil {
		t.Fatal("run survived a killed link without fault tolerance")
	}
	tr2.Close() // first close may report the dead link
	if err := tr2.Close(); err != nil {
		t.Fatalf("close after failed run is not idempotent: %v", err)
	}
	wait()
}

// TestFaultToleranceOptionValidation pins the new options' error paths.
func TestFaultToleranceOptionValidation(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 28) }
	if _, err := pipemare.New(build(), pipemare.WithCheckpoint("", 1)); err == nil ||
		!strings.Contains(err.Error(), "checkpoint directory") {
		t.Fatalf("empty checkpoint dir: err = %v", err)
	}
	if _, err := pipemare.New(build(), pipemare.WithCheckpoint(t.TempDir(), -1)); err == nil ||
		!strings.Contains(err.Error(), "cadence") {
		t.Fatalf("negative checkpoint cadence: err = %v", err)
	}
	if _, err := pipemare.New(build(), pipemare.WithHeartbeat(-time.Second)); err == nil ||
		!strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("negative heartbeat: err = %v", err)
	}
	if _, err := pipemare.Restore(t.TempDir(), build(), ftBase()...); err == nil ||
		!strings.Contains(err.Error(), "no checkpoints") {
		t.Fatalf("restore from empty dir: err = %v", err)
	}
}
