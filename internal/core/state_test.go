package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/tensor"
	"pipemare/internal/transport"
)

// nopOp is a weightless op: the stage-split machinery runs, no compute.
type nopOp struct{}

func (nopOp) Forward(*nn.Machine)  {}
func (nopOp) Backward(*nn.Machine) {}

// stageProbeTask is a probeTask compiled to one no-op per weight group,
// so the trainer takes the stage-split (machine-per-flight) path.
type stageProbeTask struct{ *probeTask }

func (t stageProbeTask) Program() *nn.Program {
	prog := &nn.Program{NumRegs: 1}
	for g := range t.groups {
		prog.Ops = append(prog.Ops, nopOp{})
		prog.GroupOf = append(prog.GroupOf, g)
	}
	return prog
}

func (t stageProbeTask) BindMicro(*nn.Machine, []int) {}

// TestBeginMicroOverlapsStageZeroInstalls pins the fix for a data race
// between BeginMicro and the stage workers: with the flight pool empty,
// BeginMicro builds a machine whose tape needs the model dtype, and must
// not read it from a Param.Data a concurrent-engine worker is reassigning
// for stage 0 of an earlier microbatch. Run under -race: the old code
// reports the race here on every run.
func TestBeginMicroOverlapsStageZeroInstalls(t *testing.T) {
	task := stageProbeTask{newProbeTask(2, 16)}
	tr, err := New(task, &countingOptimizer{ps: task.params}, optim.Constant(0.1), Config{
		Method: PipeMare, Stages: 2, BatchSize: 4, MicrobatchSize: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.prog == nil {
		t.Fatal("stage-split task compiled no program; the test would not exercise the machine path")
	}
	h := host{tr}
	const n = 64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// A stage-0 worker: install a delayed snapshot, then restore.
		defer wg.Done()
		for s := 0; s < n; s++ {
			h.InstallForward(s, 0)
			h.Restore(0)
		}
	}()
	// Never ending a microbatch keeps the pool empty, so every call builds
	// a fresh machine.
	for s := 0; s < n; s++ {
		h.BeginMicro(s, []int{s})
	}
	wg.Wait()
	for s := 0; s < n; s++ {
		if dt := h.flight(s).m.Tape.DType(); dt != tensor.Float64 {
			t.Fatalf("microbatch %d tape dtype %v, want the model's float64", s, dt)
		}
	}
}

// checkpointOf trains tr for one epoch and returns its checkpoint bytes.
func checkpointOf(tb testing.TB, tr *Trainer) []byte {
	tb.Helper()
	tr.Run(context.Background(), 1)
	path, err := tr.WriteCheckpoint(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// rewriteSections re-encodes a checkpoint file section by section with
// valid frames and CRCs, replacing each payload with edit's result — how
// a test builds a well-formed file carrying bad content.
func rewriteSections(tb testing.TB, raw []byte, edit func(h transport.Header, payload []byte) []byte) []byte {
	tb.Helper()
	var out bytes.Buffer
	for rest := raw; len(rest) > 0; {
		h, payload, next, err := transport.NextMessage(rest)
		if err != nil {
			tb.Fatal(err)
		}
		if err := transport.WriteMessage(&out, h, edit(h, payload)); err != nil {
			tb.Fatal(err)
		}
		rest = next
	}
	return out.Bytes()
}

// withRing0 returns raw with stage 0's ring section replaced by the
// given snapshots (keeping its base).
func withRing0(tb testing.TB, raw []byte, snaps [][]*tensor.Tensor) []byte {
	return rewriteSections(tb, raw, func(h transport.Header, payload []byte) []byte {
		if h.Type != ckptRing || h.Stage != 0 {
			return payload
		}
		base, _ := transport.NewCursor(payload).Ring()
		return transport.AppendRing(nil, base, snaps)
	})
}

// restoreBytes writes raw as a checkpoint file and restores tr from it.
func restoreBytes(tb testing.TB, tr *Trainer, raw []byte) error {
	tb.Helper()
	p := filepath.Join(tb.TempDir(), "ckpt-00000001.pm")
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		tb.Fatal(err)
	}
	return tr.RestoreFrom(p)
}

// TestRestoreRejectsUntrainableRings pins that a CRC-valid checkpoint
// whose ring a trainer cannot install from — no snapshots at all, or a
// snapshot unlike the stage's masters — is rejected with the live
// trainer untouched, instead of restoring and panicking in the next
// epoch's version lookup.
func TestRestoreRejectsUntrainableRings(t *testing.T) {
	raw := checkpointOf(t, fuzzTrainer(t))
	cases := map[string][][]*tensor.Tensor{
		"empty":     nil,
		"shape":     {{tensor.New(2)}},
		"dtype":     {{tensor.NewOf(tensor.Float32, 1)}},
		"too-many":  {{tensor.New(1), tensor.New(1)}},
		"too-few":   {{}},
		"late-snap": {{tensor.New(1)}, {tensor.New(3)}},
	}
	for name, snaps := range cases {
		t.Run(name, func(t *testing.T) {
			tr := fuzzTrainer(t)
			before := tr.masters[0].Data[0]
			err := restoreBytes(t, tr, withRing0(t, raw, snaps))
			if err == nil || !strings.Contains(err.Error(), "ring") {
				t.Fatalf("restore err = %v, want a ring rejection", err)
			}
			if tr.masters[0].Data[0] != before || tr.step != 0 {
				t.Fatal("a rejected restore changed the live trainer")
			}
			tr.Run(context.Background(), 1)
		})
	}
}

// TestRestoreVersionsRejectsUntrainableRings pins the same check on the
// member surface a worker's MsgSetRing lands on.
func TestRestoreVersionsRejectsUntrainableRings(t *testing.T) {
	tr := fuzzTrainer(t)
	h := host{tr}
	for name, snaps := range map[string][][]*tensor.Tensor{
		"empty": nil,
		"shape": {{tensor.New(4)}},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "ring") {
					t.Fatalf("RestoreVersions panic = %v, want a ring rejection", r)
				}
				if base, ring := tr.store.History(0); base != 0 || len(ring) == 0 {
					t.Fatalf("rejected ring replaced the live one (base %d, %d snapshots)", base, len(ring))
				}
			}()
			h.RestoreVersions(0, 0, snaps)
		})
	}
}

// TestRestoreRejectsFormat2 pins the format bump: a version-2 file —
// u32 clocks, per-part stage lists — is refused by its format version,
// not mis-decoded.
func TestRestoreRejectsFormat2(t *testing.T) {
	raw := checkpointOf(t, fuzzTrainer(t))
	v2 := rewriteSections(t, raw, func(h transport.Header, payload []byte) []byte {
		if h.Type != ckptMeta {
			return payload
		}
		// format, step, epoch, micro, stages, params, T2, moments, opt clock
		b := transport.AppendU32(nil, 2)
		for _, v := range []uint32{4, 1, 16, 4, 4} {
			b = transport.AppendU32(b, v)
		}
		b = transport.AppendBool(b, true)
		return transport.AppendU32(transport.AppendU32(b, 0), 0)
	})
	err := restoreBytes(t, fuzzTrainer(t), v2)
	if err == nil || !strings.Contains(err.Error(), "format version 2, want 3") {
		t.Fatalf("restore err = %v, want the format-version error", err)
	}
}

// TestCheckpointRoundTripsWideClocks pins the u64 meta clocks: step,
// epoch, microbatch and optimizer clocks past 2³² survive a round trip,
// and the restored trainer trains on from them.
func TestCheckpointRoundTripsWideClocks(t *testing.T) {
	build := func() *Trainer {
		task := newProbeTask(4, 32)
		tr, err := New(task, optim.NewAdamW(task.params, 0.9, 0.999, 1e-8, 0), optim.Constant(0.01), Config{
			Method: PipeMare, Stages: 4, BatchSize: 8, MicrobatchSize: 2, T2D: 0.3, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if tr.stateful == nil {
			t.Fatal("AdamW trainer has no resident moment state; the optimizer clock would not be checkpointed")
		}
		return tr
	}
	src := build()
	src.Run(context.Background(), 1)
	const epoch = 1<<32 + 5
	perEpoch := src.task.NumTrain() / src.cfg.BatchSize
	step := epoch*perEpoch + 2
	src.setStep(step)
	src.epoch, src.micro = epoch, step*src.clock.N
	path, err := src.WriteCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dst := build()
	if err := dst.RestoreFrom(path); err != nil {
		t.Fatal(err)
	}
	if dst.step != step || dst.epoch != epoch || dst.micro != src.micro || dst.stateful.Clock() != step || dst.resumeSkip != 2 {
		t.Fatalf("restored step/epoch/micro/opt clock/skip %d/%d/%d/%d/%d, want %d/%d/%d/%d/2",
			dst.step, dst.epoch, dst.micro, dst.stateful.Clock(), dst.resumeSkip, step, epoch, src.micro, step)
	}
	dst.Run(context.Background(), 1)
	if dst.step != step+perEpoch-2 {
		t.Fatalf("step after the resumed epoch %d, want %d", dst.step, step+perEpoch-2)
	}
}
