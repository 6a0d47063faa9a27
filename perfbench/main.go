// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks that every output is correct, and
// prints its metrics as one JSON line on standard output:
//
//	perfbench --workload table1-lenet --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - table1-lenet: the paper's Table 1 protocol (experiments.Table1) on
//     LeNet/MNIST-like, all four policies over the default NWC grid.
//   - fig2-resnet: the Fig. 2b protocol (experiments.Fig2) on
//     ResNet-18/CIFAR-like at sigma = 1.0 with the selector policies.
//   - serve-mix: an in-process swim-serve daemon on loopback driven by two
//     closed-loop clients with a mix of cache hits, coalesced and fresh
//     requests.
//   - serve-shard: a coordinator with two in-process shard workers, every
//     request fresh and split into trial-range shards.
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, latency, peak RSS). With --trace 1 the run replays the same
// work through the public calls of each layer, timing each call from here,
// and reports a per-layer breakdown instead; the replay must reproduce the
// untraced results bit for bit, or no per-layer numbers are reported.
//
// Every run uses the program's defaults: the scalar kernel backend,
// runtime.NumCPU Monte-Carlo workers and SWIM_FAST model scale.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// processStart approximates the process start for setup_s: package
// initialization runs before main, right after the runtime starts.
var processStart = time.Now()

// setupSamples is how many fresh processes set a workload up per untraced
// run (this one plus the rest as children); setup_s is their median.
// fig2-resnet sets up once: ResNet training takes ~14 s, and a second
// sample would not fit the benchmark's run budget.
func setupSamples(name string) int {
	if name == "fig2-resnet" {
		return 1
	}
	return 2
}

// defaultSeed is the seed the committed golden hashes were computed at.
const defaultSeed = 1

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts attempted and failed operations; a failure is an error, a
// non-2xx response, a timeout or an output that fails a check. It is safe
// for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records one failed operation with its reason.
func (t *tally) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, msg)
	}
}

// check records a failed check (a failure without an operation of its own:
// it is counted as one attempted and failed operation).
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	t.attempt()
	t.fail(format, args...)
}

// workload is one benchmark workload. setup builds everything the timed
// phase needs; setup_s ends when it returns. measure and trace run the
// timed phase for d, untraced or traced; close releases what setup started.
type workload interface {
	setup(ctx context.Context, t *tally) error
	measure(ctx context.Context, d time.Duration, seed uint64, t *tally) (metrics, error)
	trace(ctx context.Context, d time.Duration, seed uint64, t *tally) (metrics, error)
	close()
}

// workloads lists the benchmark's workloads by name.
var workloads = map[string]func() workload{
	"table1-lenet": newTable1Lenet,
	"fig2-resnet":  newFig2Resnet,
	"serve-mix":    func() workload { return newServeWorkload(false) },
	"serve-shard":  func() workload { return newServeWorkload(true) },
}

func main() {
	name := flag.String("workload", "", "workload: table1-lenet | fig2-resnet | serve-mix | serve-shard")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; inputs are generated from it")
	seconds := flag.Float64("seconds", 10, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "1 reports the per-layer breakdown instead of end-to-end metrics")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print setup_s and exit (used for set-up samples)")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	pinDefaults()
	if err := run(*name, mk(), *seed, *seconds, *trace == 1, *setupOnly); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// pinDefaults fixes the program's environment knobs to their defaults at
// SWIM_FAST scale, so the inputs depend on the seed alone.
func pinDefaults() {
	os.Setenv("SWIM_FAST", "1")
	for _, v := range []string{"SWIM_MC", "SWIM_EVAL", "SWIM_WORKERS"} {
		os.Unsetenv(v)
	}
}

func run(name string, w workload, seed uint64, seconds float64, traced, setupOnly bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	t := &tally{}
	err := w.setup(ctx, t)
	setup := time.Since(processStart).Seconds()
	if err != nil {
		w.close()
		return fmt.Errorf("setup: %w", err)
	}
	if setupOnly {
		w.close()
		fmt.Printf("setup_s %s\n", strconv.FormatFloat(setup, 'g', -1, 64))
		return nil
	}

	d := time.Duration(seconds * float64(time.Second))
	var m metrics
	if traced {
		m, err = w.trace(ctx, d, seed, t)
	} else {
		m, err = w.measure(ctx, d, seed, t)
	}
	w.close()
	if err != nil {
		return err
	}
	if !traced {
		samples := []float64{setup}
		for i := 1; i < setupSamples(name); i++ {
			s, err := childSetup(ctx, name, seed)
			if err != nil {
				return fmt.Errorf("setup sample %d: %w", i, err)
			}
			samples = append(samples, s)
		}
		m.set("setup_s", quantile(samples, 0.5), "s")
		m.set("max_rss_mb", maxRSSMB(), "MB")
		fmt.Fprintf(os.Stderr, "setup samples (s): %v\n", samples)
		for _, k := range endToEnd {
			t.check(m[k].Unit != "", "end-to-end metric %s missing", k)
		}
	} else if len(m) > 0 { // an empty map means the parity guard withheld the numbers
		for _, k := range completePerLayer(m) {
			t.check(false, "per-layer metric %s is not declared", k)
		}
	}

	rep := report{Attempted: t.attempted, Failed: t.failed, Metrics: m}
	if rep.Attempted < 1 {
		rep.Attempted, rep.Failed = 1, 1
		t.reasons = append(t.reasons, "no operation completed")
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rep.Failed++
			t.reasons = append(t.reasons, "metric "+k+" is not finite")
			m.set(k, -1, v.Unit)
		}
	}
	rep.Correct = rep.Failed == 0
	printHuman(name, seed, traced, &rep, t.reasons)
	out, err := json.Marshal(&rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
	return nil
}

// childSetup sets the workload up in a fresh child process and returns its
// setup_s.
func childSetup(ctx context.Context, name string, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	f := strings.Fields(lines[len(lines)-1])
	if len(f) != 2 || f[0] != "setup_s" {
		return 0, fmt.Errorf("unexpected child output %q", out.String())
	}
	return strconv.ParseFloat(f[1], 64)
}

// maxRSSMB returns this process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printHuman writes the metrics, one per line with their units, and the
// error rate to standard error.
func printHuman(name string, seed uint64, traced bool, rep *report, reasons []string) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(os.Stderr, "== %s seed=%d %s ==\n", name, seed, mode)
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-28s %14.6g ratio (%d failed of %d attempted)\n", "error_rate",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	for _, r := range reasons {
		fmt.Fprintf(os.Stderr, "  FAIL: %s\n", r)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
