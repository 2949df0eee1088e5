package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared virtual machine the hypervisor runs other tenants on the
// same physical CPUs, and the time it takes from this VM shows up as
// "steal" in /proc/stat. Steal comes and goes with the neighbours' load
// (0–26% of a run on the 2-vCPU reference host), so raw wall-clock
// throughput mostly measures them. The end-to-end times are therefore taken as available wall time:
// the wall interval minus the stolen share of the CPU time the VM wanted
// in it, wall × busy ÷ (busy + steal). Where nothing is stolen — bare
// metal, or a quiet host — it equals the raw wall time.

// cpuTicks is the machine-wide CPU time split of /proc/stat, in ticks.
type cpuTicks struct{ busy, steal int64 }

// readTicks returns the current totals; zeros when /proc/stat is absent,
// which makes every available time equal its raw wall time.
func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	n := func(i int) int64 {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		return v
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: n(1) + n(2) + n(3) + n(6) + n(7), steal: n(8)}
}

// stopwatch times one interval as raw and as available wall time.
type stopwatch struct {
	t0 time.Time
	c0 cpuTicks
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), c0: readTicks()} }

// stop returns the raw wall seconds since start and the available ones.
func (s stopwatch) stop() (wall, avail float64) {
	wall = time.Since(s.t0).Seconds()
	c := readTicks()
	busy, steal := c.busy-s.c0.busy, c.steal-s.c0.steal
	if busy <= 0 || steal <= 0 {
		return wall, wall
	}
	return wall, wall * float64(busy) / float64(busy+steal)
}
