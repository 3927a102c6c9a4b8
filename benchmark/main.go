// Command benchmark is SLATE's end-to-end benchmark: one workload per
// invocation, end-to-end metrics with tracing off, per-layer metrics
// from a separate traced run. See README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var processStart = time.Now()

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// size scales the workload's inputs; 1 is the benchmark, the smoke
	// test runs at about 1 %.
	size   float64
	outDir string
}

// outcome is what a workload hands back: operation counts, the gates
// that failed, and metric values by name.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	notes             []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// problem records a failed correctness gate: the run reports
// "correct": false.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"mesh-chain":  runMesh,
	"ctrl-churn":  func(c runConfig) (*outcome, error) { return runCtrl(c, true) },
	"ctrl-steady": func(c runConfig) (*outcome, error) { return runCtrl(c, false) },
	"sim-gen16":   runSim,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary is printed before the result line: where and how the numbers
// were taken. The benchmark itself never claims a gain.
type summary struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Size       float64 `json:"size"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Link       string  `json:"link"`
	Claim      *string `json:"claim"`
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg runConfig
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	fs.StringVar(&cfg.workload, "workload", "", "mesh-chain | ctrl-churn | ctrl-steady | sim-gen16")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (2 is reserved for validating claims)")
	fs.Float64Var(&cfg.size, "size", 1, "input scale; 1 is the benchmark")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if *seconds <= 0 || cfg.size <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need seconds > 0, size > 0 and trace 0 or 1")
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1

	out, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return emit(w, cfg, out)
}

// emit prints the notes, the metric table, the summary line and the
// result line.
func emit(w io.Writer, cfg runConfig, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "# FAILED GATE:", p)
	}
	fmt.Fprintf(w, "# traffic crossed the host's loopback interface only; no real link was measured\n")
	fmt.Fprintf(w, "%-32s %16s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload did not report end-to-end metric %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-32s %16.6g  %s\n", d.name, v, d.unit)
	}
	for name := range out.values {
		if !known[name] {
			return fmt.Errorf("workload reported undeclared metric %s", name)
		}
	}
	sum, err := json.Marshal(summary{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace, Size: cfg.size,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Link: "loopback",
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(sum))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// commit reads the checked-out commit from .git without running git;
// the driver's checkout is not a repository, so "unknown" is normal.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(b))
	}
	if len(h) > 12 {
		h = h[:12]
	}
	return h
}
