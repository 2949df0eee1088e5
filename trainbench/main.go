// Command trainbench is the repository's training benchmark. Each
// workload is a closed loop — one process, one trainer, minibatches back
// to back — measured end to end with tracing off (--trace 0) or broken
// down layer by layer in a separate traced run (--trace 1). Every run
// checks its training curve against the single-replica Reference engine.
//
//	go run . --workload pipe-f32-p8 --seed 1 --seconds 10 --trace 0
//	go run . --workload all --seed 1 --seconds 10
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// give the host fingerprint and a human-readable table. METRICS.md
// lists every metric, its layer and why each workload exists.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one run's outcome: attempted and failed count timed epochs;
// an epoch fails on an error, a divergence or a failed correctness check.
type result struct {
	attempted, failed int
	metrics           []metric
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("trainbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name, or \"all\" for every workload traced and untraced")
	seed := fl.Int64("seed", 1, "seed the dataset, initial weights and data order derive from")
	seconds := fl.Int("seconds", 10, "seconds of timed training to aim for")
	traced := fl.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fl.NArg() > 0 {
		fmt.Fprintln(stderr, "trainbench: need --seconds >= 1, --trace 0|1 and no positional arguments")
		return 2
	}
	type job struct {
		w      workload
		traced bool
	}
	var jobs []job
	if *name == "all" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "trainbench:", err)
			return 2
		}
		jobs = []job{{w, *traced == 1}}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	// Every file a run writes (checkpoints) lives under one temp root that
	// is removed on every exit path, signals included.
	tmp, err := os.MkdirTemp("", "trainbench-")
	if err != nil {
		fmt.Fprintln(stderr, "trainbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			os.RemoveAll(tmp)
			os.Exit(130)
		}
	}()

	fp := fingerprint()
	fp["seed"] = *seed
	fp["workload"] = *name
	fp["trace"] = *traced
	line, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "host %s\n", line)

	total := result{}
	out := map[string]any{}
	for _, j := range jobs {
		epochs := j.w.timedEpochs(*seconds)
		var res result
		if j.traced {
			res, err = j.w.measureLayers(*seed, epochs, tmp)
		} else {
			res, err = j.w.measureEndToEnd(*seed, epochs, tmp)
		}
		if err != nil {
			fmt.Fprintf(stderr, "trainbench: %s: %v\n", j.w.name, err)
		}
		mode := "end-to-end"
		if j.traced {
			mode = "per-layer"
		}
		fmt.Fprintf(stdout, "%s %s: %d/%d timed epochs failed\n", j.w.name, mode, res.failed, res.attempted)
		tw := bufio.NewWriter(stdout)
		for _, m := range res.metrics {
			key := m.name
			if len(jobs) > 1 {
				key = j.w.name + "/" + m.name
			}
			out[key] = map[string]any{"value": m.value, "unit": m.unit}
			fmt.Fprintf(tw, "  %-30s %14.6g %s\n", m.name, m.value, m.unit)
		}
		tw.Flush()
		total.attempted += res.attempted
		total.failed += res.failed
	}
	last, err := json.Marshal(map[string]any{
		"correct":   total.failed == 0,
		"attempted": total.attempted,
		"failed":    total.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "trainbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

// fingerprint identifies the host and the code a result came from.
func fingerprint() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest("."),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// dot-directories, which hold build outputs), so a result names the exact
// source it measured even where no version-control metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
