package core

import (
	"math"
	"testing"

	"pipemare/internal/pipeline"
)

// TestHogwildSeesDrawnVersions pins the Appendix E install rule: at every
// microbatch of minibatch m, stage i's forward and backward both read
// version max(0, m − d), d the delay drawn for (seed, m, i), and the ring
// keeps τmax+2 snapshots so even a capped draw finds its version.
func TestHogwildSeesDrawnVersions(t *testing.T) {
	const stages = 4
	task, tr := probeTrainer(t, Hogwild, stages, stages, 8, 2, 12, 0) // N = 4, 48 minibatches
	clock := pipeline.Clock{P: tr.Stages(), N: tr.Microbatches()}
	delayed := 0
	for s, row := range task.fwdSeen {
		m := clock.Minibatch(s)
		for g, got := range row {
			mean := pipeline.MeanDelay(g+1, stages, hogwildTauMax, hogwildMeanScale)
			want := float64(max(0, m-pipeline.DrawDelay(7, m, g, mean, hogwildTauMax)))
			if got != want || task.bwdSeen[s][g] != want {
				t.Fatalf("microbatch %d stage %d: forward %g, backward %g, want drawn version %g",
					s, g+1, got, task.bwdSeen[s][g], want)
			}
			if want < float64(m) {
				delayed++
			}
		}
	}
	if delayed == 0 {
		t.Fatal("no install read a stale version")
	}
	for s := 0; s < stages; s++ {
		if base, snaps := tr.store.History(s); len(snaps) != hogwildTauMax+2 || base+len(snaps)-1 != 48 {
			t.Fatalf("stage %d ring holds versions %d..%d, want the last %d of 48",
				s, base, base+len(snaps)-1, hogwildTauMax+2)
		}
	}
}

// TestHogwildTausAreMeanDelays pins the delays T1 and T2 read under
// Hogwild: each parameter's τ is its stage's mean delay, largest at the
// first stage.
func TestHogwildTausAreMeanDelays(t *testing.T) {
	_, tr := probeTrainer(t, Hogwild, 6, 3, 8, 2, 0, 0)
	taus := tr.Taus()
	if len(taus) != 6 {
		t.Fatalf("taus length %d, want 6", len(taus))
	}
	for i, tau := range taus {
		want := hogwildMeanScale * hogwildTauMax * float64(3-i/2) / 3 // two groups per stage
		if math.Abs(tau-want) > 1e-12 {
			t.Fatalf("tau[%d] = %g, want %g", i, tau, want)
		}
		if tau > taus[0] {
			t.Fatal("first stage must have the largest expected delay")
		}
	}
}
