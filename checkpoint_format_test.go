package pipemare_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"pipemare"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

// ckptFixture is the checkpoint fixtureTrainer wrote after two epochs,
// as produced by the format-3 writer that assembled the whole file in
// memory before writing it. It pins the file format byte for byte: the
// streaming writer must reproduce it exactly from the restored state.
const ckptFixture = "testdata/ckpt-quad-format3.pm"

// ckptFixtureName is the file name the fixture's trainer state checkpoints
// under: its step clock.
const ckptFixtureName = "ckpt-00000008.pm"

// fixtureTrainer is the fixed-seed all-techniques PipeMare trainer on the
// 4-stage quadratic task, with AdamW so the file carries optimizer
// moments and the optimizer clock alongside masters, T2 state and the
// version rings.
func fixtureTrainer(t *testing.T) *pipemare.Trainer {
	t.Helper()
	tr, err := pipemare.New(newQuadTask(4, 32, 8, 41), append(ftBase(),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.999, 1e-8, 1e-4)
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointMatchesFixture pins checkpoint byte compatibility both
// ways without retraining, so it does not depend on the host's float
// arithmetic: restoring the committed fixture and writing it back
// reproduces it byte for byte (every tensor, ring and clock survived the
// restore, and the streaming writer frames them as the in-memory writer
// did), and a trainer restored from the written-back file trains the
// next epoch exactly like one restored from the fixture.
func TestCheckpointMatchesFixture(t *testing.T) {
	want := readFile(t, ckptFixture)

	restored := fixtureTrainer(t)
	if err := restored.RestoreFrom(ckptFixture); err != nil {
		t.Fatal(err)
	}
	again, err := restored.WriteCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, again); filepath.Base(again) != ckptFixtureName || !bytes.Equal(got, want) {
		t.Fatalf("restored trainer writes %s (%d bytes), differing from the %d-byte fixture %s",
			filepath.Base(again), len(got), len(want), ckptFixtureName)
	}

	reread := fixtureTrainer(t)
	if err := reread.RestoreFrom(again); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tail, err := restored.Run(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	rereadTail, err := reread.Run(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "restored-fixture", tail, rereadTail)
}
