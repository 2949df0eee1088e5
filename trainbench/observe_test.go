package main

import (
	"bytes"
	"math"
	"testing"
)

// TestWrappersArePureObservers trains one epoch past warm-up on every
// workload twice — plain, and traced with every engine, host and dialer
// wrapped — and requires bit-identical losses, so the per-layer numbers
// come from the same computation the end-to-end numbers time. It also
// checks that the wrappers saw the layers they wrap.
func TestWrappersArePureObservers(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var losses [2]float64
			for i, traced := range []bool{false, true} {
				s, err := w.open(7, t.TempDir(), traced)
				if err != nil {
					t.Fatal(err)
				}
				loss, err := s.epoch()
				if err != nil {
					s.close()
					t.Fatal(err)
				}
				losses[i] = loss
				if traced {
					tot := s.probe.totals()
					if got := len(tot.minibatchNs); got != 2*stepsPerEpoch {
						t.Errorf("outer wrapper timed %d minibatches, want %d", got, 2*stepsPerEpoch)
					}
					if tot.calls[kFwd] == 0 || tot.calls[kBwd] == 0 {
						t.Errorf("host wrapper saw %d forward and %d backward slots", tot.calls[kFwd], tot.calls[kBwd])
					}
					if w.replicas > 1 && (tot.msgs == 0 || tot.bytes == 0) {
						t.Errorf("conn wrapper saw %d messages, %d bytes", tot.msgs, tot.bytes)
					}
					if rep := s.snapshot().rep; rep.ComputeNs == 0 {
						t.Error("trace recorder saw no compute: the host wrapper hides trace.Carrier")
					}
				}
				if err := s.close(); err != nil {
					t.Fatal(err)
				}
			}
			if math.Float64bits(losses[0]) != math.Float64bits(losses[1]) {
				t.Fatalf("wrapped loss %.17g != unwrapped %.17g", losses[1], losses[0])
			}
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "pipe-f32-p8", "--trace", "2"},
		{"--workload", "pipe-f32-p8", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no result", args, code, out.String())
		}
	}
}

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if d := sourceDigest("."); len(d) != 16 {
		t.Errorf("source digest %q is not a 16-digit hex prefix", d)
	}
}
