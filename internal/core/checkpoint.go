package core

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pipemare/internal/replica"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
	"pipemare/internal/transport"
)

// Checkpointing serializes the leader's complete training state to a
// file of wire frames (the transport's framed codec: magic, version and
// CRC per frame), so restore is as bit-exact as a collective: master
// weights, T2 δ and corrected buffers, the full optimizer moment state,
// the per-stage weight-version rings the asynchronous methods read
// historical versions from, and the step/epoch/microbatch clocks.
//
// The batch order is a pure function of (seed, epoch) — run() draws a
// fresh RNG per epoch — so no RNG state needs to be saved: a restored
// trainer replays the interrupted epoch's order and skips the
// minibatches the checkpoint already contains.

// Checkpoint section types (frame Header.Type within a checkpoint file —
// a namespace separate from the live wire protocol).
const (
	ckptMeta  = 1 // format version, clocks, and layout counts
	ckptStage = 2 // one stage's state: the MsgSetState payload of stageLayout
	ckptRing  = 3 // one stage's weight-version ring: the MsgSetRing payload
	ckptEnd   = 4 // end marker: the file was written completely
)

// ckptFormat is the checkpoint format version. Version 3 writes each
// stage as the single counted tensor list the wire's MsgSetState ships,
// each ring in the MsgSetRing encoding, and the step, epoch, microbatch
// and optimizer clocks as u64. Files of any other version are rejected
// rather than mis-decoded.
const ckptFormat = 3

// ckptPattern matches checkpoint files in a directory; the step number
// is zero-padded so lexical order is step order.
const ckptPattern = "ckpt-*.pm"

// maybeCheckpoint writes a checkpoint when one is configured and the
// step clock hits the cadence. Called by run() after every committed
// minibatch.
func (t *Trainer) maybeCheckpoint() error {
	if t.cfg.CheckpointDir == "" || t.cfg.CheckpointEvery <= 0 || t.step%t.cfg.CheckpointEvery != 0 {
		return nil
	}
	start := time.Now()
	t0 := t.cfg.Trace.Now()
	if _, err := t.WriteCheckpoint(t.cfg.CheckpointDir); err != nil {
		return fmt.Errorf("core: checkpoint at step %d: %w", t.step, err)
	}
	t.ctlTrack().Span(trace.NameCkptWrite, t0, -1, -1, 0)
	t.ckptWrites++
	t.ckptNs += time.Since(start).Nanoseconds()
	return nil
}

// CheckpointStats reports how many checkpoints this trainer has written
// and the cumulative wall time spent writing them.
func (t *Trainer) CheckpointStats() (writes int, ns int64) {
	return t.ckptWrites, t.ckptNs
}

// ckptLayout is stage s's checkpoint layout: stageLayout with the
// optimizer moments whenever their full state is resident here, whatever
// the exchange layout (stageState) carries.
func (t *Trainer) ckptLayout(s int) []*tensor.Tensor { return t.stageLayout(s, t.stateful != nil) }

// WriteCheckpoint serializes the trainer's state to a new step-stamped
// file in dir (created if missing), written to a temp file and renamed
// so a crash mid-write never leaves a truncated file under the
// checkpoint name. It returns the file's path.
func (t *Trainer) WriteCheckpoint(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	if err := t.writeCheckpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.pm", t.step))
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// writeCheckpoint streams the checkpoint's sections to w as wire frames:
// meta, each stage's state, each stage's ring, the end marker. Every
// section is encoded into one reused scratch buffer, which the encoders
// regrow to exactly the section's size when it is short, so the file is
// never assembled in memory.
func (t *Trainer) writeCheckpoint(w io.Writer) error {
	momentCount, optClock := 0, 0
	if t.stateful != nil {
		momentCount, optClock = t.stateful.MomentCount(), t.stateful.Clock()
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	section := func(typ byte, stage int, payload []byte) error {
		return transport.WriteMessage(bw, transport.Header{Type: typ, Stage: int32(stage)}, payload)
	}

	b := transport.AppendU32(nil, ckptFormat)
	for _, clk := range []int{t.step, t.epoch, t.micro, optClock} {
		b = transport.AppendU64(b, uint64(clk))
	}
	b = transport.AppendU32(b, uint32(t.clock.P))
	b = transport.AppendU32(b, uint32(len(t.params)))
	b = transport.AppendBool(b, t.delta != nil)
	b = transport.AppendU32(b, uint32(momentCount))
	if err := section(ckptMeta, -1, b); err != nil {
		return err
	}
	for s := 0; s < t.clock.P; s++ {
		b = transport.AppendTensors(b[:0], t.ckptLayout(s))
		if err := section(ckptStage, s, b); err != nil {
			return err
		}
	}
	for s := 0; s < t.clock.P; s++ {
		base, snaps := t.store.History(s)
		b = transport.AppendRing(b[:0], base, snaps)
		if err := section(ckptRing, s, b); err != nil {
			return err
		}
	}
	if err := section(ckptEnd, -1, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// ckptState is a fully parsed and validated checkpoint, staged off to the
// side so a corrupt file is rejected before a single live tensor is
// touched.
type ckptState struct {
	step, epoch, micro int
	optClock           int
	skip               int // committed minibatches of the resumed epoch
	stages             [][]*tensor.Tensor
	ringBase           []int
	ringSnaps          [][][]*tensor.Tensor
}

// parseCheckpoint decodes b and validates all of it against this
// trainer's layout — clocks, every stage's tensors, every ring — so that
// apply cannot fail.
func (t *Trainer) parseCheckpoint(b []byte) (*ckptState, error) {
	h, payload, rest, err := transport.NextMessage(b)
	if err != nil {
		return nil, err
	}
	if h.Type != ckptMeta {
		return nil, fmt.Errorf("first section is type %d, want meta", h.Type)
	}
	c := transport.NewCursor(payload)
	if format := c.I32(); c.Err() == nil && format != ckptFormat {
		return nil, fmt.Errorf("format version %d, want %d", format, ckptFormat)
	}
	var clocks [4]int
	for i := range clocks {
		v := c.U64()
		if v > math.MaxInt64 {
			return nil, fmt.Errorf("meta: clock %d out of range", v)
		}
		clocks[i] = int(v)
	}
	st := &ckptState{step: clocks[0], epoch: clocks[1], micro: clocks[2], optClock: clocks[3]}
	stages, params := c.I32(), c.I32()
	t2 := c.Bool()
	momentCount := c.I32()
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	if stages != t.clock.P || params != len(t.params) {
		return nil, fmt.Errorf("checkpoint has %d stages / %d params, trainer has %d / %d", stages, params, t.clock.P, len(t.params))
	}
	if t2 != (t.delta != nil) {
		return nil, fmt.Errorf("checkpoint T2 state %v, trainer %v", t2, t.delta != nil)
	}
	wantMoments := 0
	if t.stateful != nil {
		wantMoments = t.stateful.MomentCount()
	}
	if momentCount != wantMoments {
		return nil, fmt.Errorf("checkpoint has %d moment tensors per param, optimizer has %d (different optimizer?)", momentCount, wantMoments)
	}
	perEpoch := t.task.NumTrain() / t.cfg.BatchSize
	// epoch ≤ step/perEpoch is epoch·perEpoch ≤ step without the overflow.
	if st.epoch > st.step/perEpoch || st.step-st.epoch*perEpoch > perEpoch {
		return nil, fmt.Errorf("checkpoint clocks inconsistent: step %d, epoch %d, %d minibatches per epoch", st.step, st.epoch, perEpoch)
	}
	st.skip = st.step - st.epoch*perEpoch
	if st.skip == perEpoch {
		// Checkpoint taken at the last minibatch of an epoch, before the
		// epoch counter advanced: resume at the next epoch's start. (The
		// boundary epoch's metric entry belongs to the interrupted run.)
		st.epoch++
		st.skip = 0
	}
	st.stages = make([][]*tensor.Tensor, stages)
	st.ringBase = make([]int, stages)
	st.ringSnaps = make([][][]*tensor.Tensor, stages)
	for s := 0; s < stages; s++ {
		h, payload, rest, err = transport.NextMessage(rest)
		if err != nil {
			return nil, err
		}
		if h.Type != ckptStage || int(h.Stage) != s {
			return nil, fmt.Errorf("section is type %d stage %d, want stage section %d", h.Type, h.Stage, s)
		}
		c := transport.NewCursor(payload)
		st.stages[s] = c.TensorsInto(nil)
		if err := c.Done(); err != nil {
			return nil, fmt.Errorf("stage %d: %w", s, err)
		}
		if err := checkStage(t.ckptLayout(s), st.stages[s]); err != nil {
			return nil, fmt.Errorf("stage %d: %w", s, err)
		}
	}
	for s := 0; s < stages; s++ {
		h, payload, rest, err = transport.NextMessage(rest)
		if err != nil {
			return nil, err
		}
		if h.Type != ckptRing || int(h.Stage) != s {
			return nil, fmt.Errorf("section is type %d stage %d, want ring section %d", h.Type, h.Stage, s)
		}
		c := transport.NewCursor(payload)
		st.ringBase[s], st.ringSnaps[s] = c.Ring()
		if err := c.Done(); err != nil {
			return nil, fmt.Errorf("ring %d: %w", s, err)
		}
		if err := t.checkRing(s, st.ringBase[s], st.ringSnaps[s]); err != nil {
			return nil, err
		}
	}
	h, _, _, err = transport.NextMessage(rest)
	if err != nil {
		return nil, err
	}
	if h.Type != ckptEnd {
		return nil, fmt.Errorf("missing end marker (truncated checkpoint)")
	}
	return st, nil
}

// apply installs a parsed, validated checkpoint into the live trainer.
func (t *Trainer) apply(st *ckptState) {
	for s := 0; s < t.clock.P; s++ {
		for k, dst := range t.ckptLayout(s) {
			dst.CopyFrom(st.stages[s][k])
		}
		t.store.RestoreStage(s, st.ringBase[s], st.ringSnaps[s])
	}
	t.setStep(st.step)
	if t.stateful != nil {
		t.stateful.SetClock(st.optClock)
	}
	t.epoch, t.micro, t.resumeSkip = st.epoch, st.micro, st.skip
	t.diverged = false
}

// RestoreFrom restores the trainer from one checkpoint file. The file is
// parsed and validated completely before any live state changes, so an
// invalid file leaves the trainer untouched. Followers — in-process or
// remote — then receive the restored state through syncMember, so
// training resumes exactly where the checkpointed run would have
// continued.
func (t *Trainer) RestoreFrom(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	st, err := t.parseCheckpoint(b)
	if err != nil {
		return fmt.Errorf("core: restoring %s: %w", path, err)
	}
	t.apply(st)
	t.ctlTrack().Instant(trace.NameCkptRestore, -1, -1, 0)
	for i, m := range t.followers {
		if err := t.syncMember(m, i+1); err != nil {
			return err
		}
	}
	return nil
}

// RestoreLatest restores the trainer from the newest valid checkpoint in
// dir (older files are tried in turn when a newer one is corrupt) and
// returns the restored step.
func (t *Trainer) RestoreLatest(dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, ckptPattern))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("core: no checkpoints under %s", dir)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	var lastErr error
	for _, path := range paths {
		if err := t.RestoreFrom(path); err != nil {
			lastErr = err
			continue
		}
		return t.step, nil
	}
	return 0, fmt.Errorf("core: no valid checkpoint under %s: %w", dir, lastErr)
}

// syncMember pushes the leader's complete live state to one member:
// the epoch clock, every stage's state and the step clock
// (replica.PushState), then the weight-version
// rings. It is the whole state a replica trains from, which makes it both
// the restore re-synchronization and the live handoff a mid-run joiner
// (or a rejoining standby) receives: a member that has seen syncMember is
// indistinguishable from one that trained alongside the leader from the
// start. r is the member's replica index, for error attribution.
func (t *Trainer) syncMember(m replica.Member, r int) error {
	m.SetEpoch(t.epoch)
	replica.PushState(host{t}, m)
	for s := 0; s < t.clock.P; s++ {
		base, snaps := t.store.History(s)
		m.RestoreVersions(s, base, snaps)
	}
	if er, ok := m.(replica.Erring); ok {
		if err := er.Err(); err != nil {
			return fmt.Errorf("core: syncing state to replica %d: %w", r, err)
		}
	}
	return nil
}

// epochSeed derives the per-epoch data-order seed: a fixed mix of the
// run seed and the epoch index, so the order is reproducible from the
// clocks alone (no RNG state to checkpoint).
func epochSeed(seed int64, epoch int) int64 {
	return seed ^ (int64(epoch)+1)*int64(-0x61C8864680B583EB) // 2^64 / φ, signed
}
