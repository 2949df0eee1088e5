package core

import (
	"bytes"
	"os"
	"testing"

	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/transport"
)

// TestCheckpointStreamsChunkedSections pins the streaming writer on
// sections larger than one frame: with 320 KiB parameters every stage
// and ring section spans several frames, every frame but a section's
// last carries exactly the wire's 256 KiB chunk, and the file restores
// into a trainer that writes the identical file back.
func TestCheckpointStreamsChunkedSections(t *testing.T) {
	build := func() *Trainer {
		task := newProbeTask(4, 32)
		for g := range task.groups {
			p := nn.NewParam("probe", 40000)
			task.params[g] = p
			task.groups[g].Params = []*nn.Param{p}
		}
		tr, err := New(task, &countingOptimizer{ps: task.params}, optim.Constant(0.1), Config{
			Method: PipeMare, Stages: 4, BatchSize: 8, MicrobatchSize: 2, T2D: 0.3, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	raw := checkpointOf(t, build())

	const chunk = 256 << 10
	frames, sections := 0, 0
	for rest := raw; len(rest) > 0; frames++ {
		h, p, next, err := transport.DecodeFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		if h.More() && len(p) != chunk {
			t.Fatalf("frame %d continues its section with %d bytes, want %d", frames, len(p), chunk)
		}
		if !h.More() {
			sections++
		}
		rest = next
	}
	if sections != 2+2*4 || frames <= 2*sections {
		t.Fatalf("%d frames in %d sections, want 10 sections, most of them chunked", frames, sections)
	}

	restored := build()
	if err := restoreBytes(t, restored, raw); err != nil {
		t.Fatal(err)
	}
	path, err := restored.WriteCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatal("restored trainer writes a different checkpoint")
	}
}
