package experiments

import (
	"fmt"
	"io"

	"pipemare/internal/core"
	"pipemare/internal/optim"
)

func init() {
	register("fig19", "Hogwild!-style asynchrony with and without T1", fig19)
}

// hogwildClassifier is the Appendix E recipe: the classification workload
// (B=64 in N=8 microbatches, momentum SGD, T1 K=480) with the step decay
// moved to epoch 30 of a 45-epoch budget.
func hogwildClassifier() Workload {
	wl := CIFARLike()
	wl.NewSchedule = func() optim.Schedule {
		return optim.StepDecay{Base: 0.05, DropEvery: 30 * 16, Factor: 0.1}
	}
	wl.Epochs = 45
	return wl
}

// fig19 regenerates the Appendix E experiment: Hogwild!-style stochastic
// per-stage delays on the classification workload, comparing synchronous
// training, raw Hogwild!, and Hogwild! with T1 learning-rate
// rescheduling.
func fig19(w io.Writer, s Scale) {
	fmt.Fprintln(w, "Figure 19: Hogwild!-style asynchronous training")
	wl := hogwildClassifier()
	epochs := scaleEpochs(s, wl.Epochs)
	specs := []struct {
		name string
		spec RunSpec
	}{
		{"Sync (GPipe)", RunSpec{Method: core.GPipe}},
		{"Hogwild!", RunSpec{Method: core.Hogwild}},
		{"Hogwild! + T1", RunSpec{Method: core.Hogwild, UseT1: true}},
	}
	tb := newTable("Run", "Best", "Final", "Diverged/blown")
	var best [3]float64
	var blown [3]bool
	for i, sp := range specs {
		sp.spec.Epochs, sp.spec.Seed = epochs, 11
		r := wl.Run(sp.spec).Run
		n := r.ParamNorm
		last := "-"
		if !r.Diverged {
			last = fmt.Sprintf("%.1f", r.Metric[r.Epochs()-1])
		}
		best[i], blown[i] = r.Best(), r.Diverged || n[len(n)-1] > 1e6
		tb.add(sp.name, fmt.Sprintf("%.1f", best[i]), last, blown[i])
	}
	tb.write(w)
	fmt.Fprintln(w, t1Verdict(best[1], best[2], blown[1], blown[2]))
}

// t1Verdict states what the measured Hogwild! rows show about T1: which
// run blew up, or how T1 moved the best accuracy.
func t1Verdict(rawBest, t1Best float64, rawBlown, t1Blown bool) string {
	switch {
	case rawBlown && !t1Blown:
		return fmt.Sprintf("T1 rescheduling kept Hogwild! from blowing up (best %.1f with T1).", t1Best)
	case t1Blown && !rawBlown:
		return fmt.Sprintf("Hogwild! blew up with T1 rescheduling but not without it (best %.1f without).", rawBest)
	case rawBlown:
		return "Hogwild! blew up with and without T1 rescheduling."
	}
	return fmt.Sprintf("T1 rescheduling moved Hogwild!'s best accuracy from %.1f to %.1f (%+.1f points).",
		rawBest, t1Best, t1Best-rawBest)
}
