package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pipemare"
	"pipemare/internal/nn"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
)

const (
	// setupRuns is how many times an end-to-end run sets the workload up;
	// setup_s is their median and the last one trains the timed epochs.
	setupRuns = 5
	// samplesPerEpoch is what one epoch trains: every full minibatch.
	samplesPerEpoch = trainSize / batchSize * batchSize
	stepsPerEpoch   = trainSize / batchSize
	// reconcileTol bounds |bench.unaccounted_frac|: the traced epoch wall
	// the benchmark's layers leave unexplained (METRICS.md).
	reconcileTol = 0.05
	mib          = 1 << 20
)

// timedEpochs sizes a run: about --seconds of training on the reference
// host, and never fewer than three epochs, so medians have a middle.
func (w workload) timedEpochs(seconds int) int {
	return max(3, int(math.Round(float64(seconds)/w.epochS)))
}

// epochs is what trainTimed measured: per epoch the raw and available
// wall seconds (clock.go) and the training loss, and the largest live
// heap seen at a boundary.
type epochs struct {
	walls, avail, losses []float64
	heapMiB              float64
}

// trainTimed trains n epochs on s, timing each; at every boundary,
// outside the timed region, it forces a GC and tracks the live heap. It
// stops at the first failed epoch.
func trainTimed(s *session, n int) (epochs, error) {
	ep := epochs{heapMiB: liveHeapMiB()}
	for e := 0; e < n; e++ {
		sw := startWatch()
		loss, err := s.epoch()
		wall, avail := sw.stop()
		if err != nil {
			return ep, fmt.Errorf("timed epoch %d: %w", e, err)
		}
		ep.walls = append(ep.walls, wall)
		ep.avail = append(ep.avail, avail)
		ep.losses = append(ep.losses, loss)
		ep.heapMiB = max(ep.heapMiB, liveHeapMiB())
	}
	return ep, nil
}

func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// measureEndToEnd sets the workload up setupRuns times, trains the timed
// epochs untraced on the last set-up, and checks the curve.
func (w workload) measureEndToEnd(seed int64, n int, tmp string) (result, error) {
	res := result{attempted: n, failed: n}
	var setups []float64
	var s *session
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // every set-up starts from a collected heap
		sw := startWatch()
		sess, err := w.open(seed, filepath.Join(tmp, fmt.Sprintf("e2e-%d", i)), false)
		_, avail := sw.stop()
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, avail)
		if i == setupRuns-1 {
			s = sess
			break
		}
		if err := sess.close(); err != nil {
			return res, fmt.Errorf("set-up close: %w", err)
		}
	}
	defer s.close()
	ep, err := trainTimed(s, n)
	res.failed = n - len(ep.walls)
	if err != nil {
		return res, err
	}
	bad, _, err := w.check(seed, s, ep.losses)
	res.failed += bad
	rates := make([]float64, len(ep.avail))
	for i, t := range ep.avail {
		rates[i] = samplesPerEpoch / t
	}
	fmt.Fprintf(os.Stderr, "trainbench: %s available set-ups %.3f s, epochs %.3f s (raw wall %.3f s)\n",
		w.name, setups, ep.avail, ep.walls)
	res.metrics = []metric{
		{"train_samples_per_s", "samples/s", quantile(rates, 0.5)},
		{"setup_s", "s", quantile(setups, 0.5)},
		{"final_loss", "nats", ep.losses[len(ep.losses)-1]},
		{"live_heap_mb", "MiB", ep.heapMiB},
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return res, err
}

// check runs the workload's correctness checks after its timed epochs and
// returns how many timed epochs they fail. The first timed epoch's loss
// must equal, bit for bit, the single-replica Reference oracle's. With
// checkpoints, a trainer restored from the newest checkpoint must also
// reproduce the uninterrupted trainer's next-epoch loss bit for bit.
// restoreMs is the restore's wall time (0 without checkpoints).
func (w workload) check(seed int64, s *session, losses []float64) (bad int, restoreMs float64, err error) {
	want, err := w.oracleLoss(seed)
	if err != nil {
		return 1, 0, fmt.Errorf("oracle: %w", err)
	}
	if math.Float64bits(losses[0]) != math.Float64bits(want) {
		bad++
		err = fmt.Errorf("first timed epoch loss %.17g != Reference oracle %.17g", losses[0], want)
	}
	if !w.checkpoint {
		return bad, 0, err
	}
	opts := append(w.recipe(seed), pipemare.WithEngine(pipemare.NewReferenceEngine()),
		pipemare.WithCheckpoint(filepath.Join(s.ckptDir, "restored"), ckptEvery))
	rtr, rerr := pipemare.New(newTask(seed), opts...)
	if rerr != nil {
		return bad + 1, 0, rerr
	}
	defer rtr.Close()
	t0 := time.Now()
	if _, rerr := rtr.RestoreLatest(s.ckptDir); rerr != nil {
		return bad + 1, 0, rerr
	}
	restoreMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	got, rerr := trainEpoch(rtr)
	if rerr != nil {
		return bad + 1, restoreMs, fmt.Errorf("restored epoch: %w", rerr)
	}
	next, rerr := s.epoch()
	if rerr != nil {
		return bad + 1, restoreMs, fmt.Errorf("uninterrupted epoch: %w", rerr)
	}
	if math.Float64bits(got) != math.Float64bits(next) {
		bad++
		err = fmt.Errorf("restored epoch loss %.17g != uninterrupted %.17g", got, next)
	}
	return bad, restoreMs, err
}

// snapshot is the cumulative state of a traced session at an epoch
// boundary; subtracting two gives the epochs between them.
type snapshot struct {
	rep        pipemare.TraceReport
	probe      probeTotals
	ckptWrites int
	ckptNs     int64
	totalAlloc uint64
}

func (s *session) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writes, ns := s.tr.CheckpointStats()
	return snapshot{
		rep:        pipemare.BuildTraceReport(s.rec, s.tr.StageCosts()),
		probe:      s.probe.totals(),
		ckptWrites: writes,
		ckptNs:     ns,
		totalAlloc: ms.TotalAlloc,
	}
}

// measureLayers trains untraced epochs for the tracing-overhead baseline,
// then the same number traced on a fresh set-up, and derives every
// per-layer metric from the benchmark's probes and the program's trace.
func (w workload) measureLayers(seed int64, epochs int, tmp string) (result, error) {
	n := max(3, (epochs+1)/2)
	res := result{attempted: 2 * n, failed: 2 * n}
	u, err := w.open(seed, filepath.Join(tmp, "layers-untraced"), false)
	if err != nil {
		return res, fmt.Errorf("untraced set-up: %w", err)
	}
	uep, err := trainTimed(u, n)
	res.failed = 2*n - len(uep.walls)
	if cerr := u.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	s, err := w.open(seed, filepath.Join(tmp, "layers-traced"), true)
	if err != nil {
		return res, fmt.Errorf("traced set-up: %w", err)
	}
	defer s.close()
	before := s.snapshot()
	tep, err := trainTimed(s, n)
	res.failed = n - len(tep.walls)
	if err != nil {
		return res, err
	}
	after := s.snapshot()
	bad, restoreMs, err := w.check(seed, s, tep.losses)
	res.failed += bad

	ep := float64(n)
	steps := ep * stepsPerEpoch
	wall := sum(tep.walls)
	d := after.probe.since(before.probe)
	lanes := float64(w.lanes())
	secs := func(ns int64) float64 { return float64(ns) / 1e9 / ep }

	// The trace report is cumulative from trainer construction: the
	// timed epochs' share is the difference of the two snapshots.
	collectiveNs := after.rep.CollectiveNs - before.rep.CollectiveNs
	commitNs := after.rep.CommitNs - before.rep.CommitNs
	bytesMoved := after.rep.BytesMoved - before.rep.BytesMoved
	controlNs := after.rep.ControlNs - before.rep.ControlNs
	occupancy := ratio(float64(after.rep.IdealNs-before.rep.IdealNs), float64(after.rep.WallNs-before.rep.WallNs))
	if w.replicas == 1 {
		// Without replicas the commit runs through the wrapped host and
		// is counted under optim; there is no replica layer.
		collectiveNs, commitNs, bytesMoved = 0, 0, 0
	}

	gemm := gemmGFLOPS(w.dtype, batchSize/microbatch*tgtLen, modelDim, 2*modelDim)
	peak := gemmGFLOPS(w.dtype, 256, 256, 256)
	gflopPerSample := modelGFLOPPerSample(newTask(seed))
	computeS := secs(d.ns[kFwd] + d.ns[kBwd])
	modelGFLOP := gflopPerSample * samplesPerEpoch // per epoch

	stage := make([]float64, maxStages)
	busiest, total := 0.0, 0.0
	for i := 0; i < w.stages; i++ {
		stage[i] = secs(d.stageNs[i])
		busiest = max(busiest, stage[i])
		total += stage[i]
	}
	mbMs := make([]float64, len(d.minibatchNs))
	for i, ns := range d.minibatchNs {
		mbMs[i] = float64(ns) / 1e6
	}
	minibatchNs := sum(d.minibatchNs)
	minibatchS := secs(minibatchNs)
	ckptStallS := secs(after.ckptNs - before.ckptNs)
	writes := after.ckptWrites - before.ckptWrites
	diskMiB, files := dirMiB(s.ckptDir)
	unaccounted := 1 - (minibatchS+secs(controlNs))/(wall/ep)
	if math.Abs(unaccounted) > reconcileTol {
		fmt.Fprintf(os.Stderr, "trainbench: layers leave %.1f%% of the traced wall unexplained (tolerance %.0f%%)\n",
			100*unaccounted, 100*reconcileTol)
	}

	res.metrics = []metric{
		{"tensor.gemm_gflops", "GFLOP/s", gemm},
		{"tensor.peak_gflops", "GFLOP/s", peak},
		{"nn.fwd_s", "s", secs(d.ns[kFwd])},
		{"nn.bwd_s", "s", secs(d.ns[kBwd])},
		{"nn.fwd_calls_per_step", "count", float64(d.calls[kFwd]) / steps},
		{"nn.model_gflop_per_sample", "GFLOP", gflopPerSample},
		{"nn.achieved_gflops", "GFLOP/s", ratio(modelGFLOP, computeS)},
		{"nn.mfu", "ratio", ratio(modelGFLOP, wall/ep*lanes*peak)},
	}
	for i := range stage {
		res.metrics = append(res.metrics, metric{fmt.Sprintf("engine.stage_busy_s.%d", i), "s", stage[i]})
	}
	res.metrics = append(res.metrics, []metric{
		{"engine.stage_imbalance", "ratio", ratio(busiest, total/float64(w.stages))},
		{"engine.bubble_fraction", "ratio", 1 - ratio(float64(sum(d.ns[:])+collectiveNs+commitNs), lanes*float64(minibatchNs))},
		{"engine.schedule_occupancy", "ratio", occupancy},
		{"engine.minibatch_ms_p50", "ms", quantile(mbMs, 0.5)},
		{"engine.minibatch_ms_p90", "ms", quantile(mbMs, 0.9)},
		{"core.install_s", "s", secs(d.ns[kInstall])},
		{"core.alloc_mb_per_step", "MiB", float64(after.totalAlloc-before.totalAlloc) / mib / steps},
		{"optim.prepare_s", "s", secs(d.ns[kPrepare])},
		{"optim.step_s", "s", secs(d.ns[kStep])},
		{"optim.finish_s", "s", secs(d.ns[kFinish])},
		{"replica.collective_s", "s", secs(collectiveNs)},
		{"replica.commit_s", "s", secs(commitNs)},
		{"replica.bytes_per_step", "bytes", float64(bytesMoved) / steps},
		{"transport.send_s", "s", secs(d.sendNs)},
		{"transport.recv_wait_s", "s", secs(d.recvNs)},
		{"transport.msgs_per_step", "count", float64(d.msgs) / steps},
		{"transport.bytes_per_step", "bytes", float64(d.bytes) / steps},
		{"ckpt.stall_s", "s", ckptStallS},
		{"ckpt.write_ms", "ms", ratio(1e3*ckptStallS*ep, float64(writes))},
		{"ckpt.mb_per_write", "MiB", ratio(diskMiB, float64(files))},
		{"ckpt.disk_mb", "MiB", diskMiB},
		{"ckpt.restore_ms", "ms", restoreMs},
		{"eval.s", "s", wall/ep - minibatchS - ckptStallS},
		{"trace.overhead_frac", "ratio", quantile(tep.avail, 0.5)/quantile(uep.avail, 0.5) - 1},
		{"bench.unaccounted_frac", "ratio", unaccounted},
	}...)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return res, err
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func sum[T int64 | float64](xs []T) T {
	var t T
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirMiB returns the size in MiB and the count of the checkpoint files
// directly under dir (0, 0 for "" or a missing directory).
func dirMiB(dir string) (float64, int) {
	if dir == "" {
		return 0, 0
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*.pm"))
	var bytes int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			bytes += fi.Size()
		}
	}
	return float64(bytes) / mib, len(paths)
}

// gemmGFLOPS times the blocked tensor.MatMulInto kernel on an m×k by k×n
// product of the given dtype, single-threaded: the median over five
// batches of at least 50 ms each.
func gemmGFLOPS(dt pipemare.DType, m, k, n int) float64 {
	a, b, dst := tensor.NewOf(dt, m, k), tensor.NewOf(dt, k, n), tensor.NewOf(dt, m, n)
	for i := 0; i < m*k; i++ {
		a.SetFlat(i, float64(i%7)-3)
	}
	for i := 0; i < k*n; i++ {
		b.SetFlat(i, float64(i%5)-2)
	}
	zero := func() {
		if dt == pipemare.Float32 {
			clear(tensor.F32(dst))
		} else {
			clear(tensor.F64(dst))
		}
	}
	flop := 2 * float64(m) * float64(k) * float64(n)
	var rates []float64
	for len(rates) < 5 {
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < 50*time.Millisecond {
			zero()
			tensor.MatMulInto(dst, a, b)
			reps++
		}
		rates = append(rates, flop*float64(reps)/time.Since(t0).Seconds()/1e9)
	}
	return quantile(rates, 0.5)
}

// modelGFLOPPerSample sums the program's analytic nn.Cost FLOPs (forward
// plus backward, per activation row) over every op, times the rows a
// sample gives that op: source positions for the encoder side and the
// cross-attention key/value projections of the encoder memory, target
// positions for the rest. Recompute is not model work and is not counted.
func modelGFLOPPerSample(task pipemare.Task) float64 {
	st, ok := task.(interface {
		Program() *nn.Program
		Groups() []pipeline.ParamGroup
	})
	if !ok {
		return 0
	}
	groups := st.Groups()
	total := 0.0
	for i, c := range st.Program().GroupCosts(len(groups)) {
		name := groups[i].Name
		rows := float64(tgtLen)
		if strings.HasPrefix(name, "src.") || strings.HasPrefix(name, "enc") ||
			strings.HasSuffix(name, ".cross.k") || strings.HasSuffix(name, ".cross.v") {
			rows = srcLen
		}
		total += c.FLOPs * rows
	}
	return total / 1e9
}
