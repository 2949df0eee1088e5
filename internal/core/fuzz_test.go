package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

// fuzzTrainer builds the small all-techniques trainer the fuzz target
// restores into: 4 probe groups over 4 stages with T2 on, so the
// checkpoint carries every section kind (meta, per-stage state with
// masters/delta/moments, version rings).
func fuzzTrainer(f testing.TB) *Trainer {
	task := newProbeTask(4, 32)
	var ps []*nn.Param
	for _, g := range task.groups {
		ps = append(ps, g.Params...)
	}
	tr, err := New(task, &countingOptimizer{ps: ps}, optim.Constant(0.1), Config{
		Method: PipeMare, Stages: 4, BatchSize: 8, MicrobatchSize: 2,
		T2D: 0.3, Seed: 7,
	})
	if err != nil {
		f.Fatal(err)
	}
	return tr
}

// FuzzRestoreFrom fuzzes the checkpoint parser behind RestoreFrom — the
// same stage-list and ring payloads the live broadcast and join handoff
// ship — with a real checkpoint as the seed corpus. The contract under
// arbitrary bytes is error-or-success, never a panic, and never a restore
// that later training trips over: whether the restore failed (nothing
// applied) or succeeded (everything validated), the trainer must train
// another epoch.
func FuzzRestoreFrom(f *testing.F) {
	raw := checkpointOf(f, fuzzTrainer(f))
	f.Add(raw)
	f.Add([]byte{})
	f.Add(raw[:len(raw)/2])
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	truncTail := append([]byte(nil), raw[:len(raw)-3]...)
	f.Add(truncTail)
	f.Add(withRing0(f, raw, nil)) // CRC-valid, but an empty ring
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "ckpt-00000001.pm")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tr := fuzzTrainer(t)
		tr.RestoreFrom(p)
		tr.Run(context.Background(), 1)
	})
}
