// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload in one process against the public
// facade (blockwatch.Program.Run and Campaign) and the layer packages,
// checks every output, and prints its metrics as JSON:
//
//	go build -o perfbench . && ./perfbench --workload protect --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// makes the traced run, which reports the per-layer metrics and the
// tracing overhead and writes its spans to a file. The last line of
// standard output is the result; the line before it records the
// environment and the sample count behind every metric. The exit code is
// nonzero when an output check failed or an operation failed. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"blockwatch/internal/buildinfo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: protect | campaign | remote")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured loop in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := fs.String("spans", "", "file for the traced run's spans (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	wl, ok := workloads[*name]
	if !ok {
		return config{}, fmt.Errorf("unknown workload %q (protect | campaign | remote)", *name)
	}
	if *traced != 0 && *traced != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, not %d", *traced)
	}
	if *seconds <= 0 {
		return config{}, errors.New("--seconds must be positive")
	}
	cfg := config{workload: wl, seed: *seed, seconds: *seconds, trace: *traced == 1, spans: *spans}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", wl.name, cfg.seed))
	}
	return cfg, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: how the numbers were made.
type report struct {
	Env     map[string]any `json:"env"`
	Samples map[string]int `json:"samples"`
	// Reported holds observations that depend on scheduling (simulated
	// time of lock kernels, daemon session counters) and are never checked.
	Reported map[string]any `json:"reported"`
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir, err := scratchDir()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	o := &ops{}
	rep := report{
		Env: map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"git_sha":    buildinfo.Version(),
			"seed":       cfg.seed,
			"workload":   cfg.workload.name,
			"seconds":    cfg.seconds,
			"trace":      cfg.trace,
		},
		Reported: map[string]any{},
	}
	var ms map[string]metric
	if cfg.trace {
		ms, rep.Samples, err = tracedRun(cfg, dir, o, rep.Reported)
	} else {
		ms, rep.Samples, err = untracedRun(cfg, dir, o, rep.Reported)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", name, m.Value)
			return 1
		}
	}
	res := result{Correct: len(o.wrong) == 0, Attempted: o.attempted, Failed: len(o.failed), Metrics: ms}
	printHuman(stderr, ms, rep.Samples)
	for _, line := range append(o.failed, o.wrong...) {
		fmt.Fprintln(stderr, "perfbench: FAIL", line)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// untracedRun sets up, runs the measured loop with tracing off and
// returns the end-to-end metrics.
func untracedRun(cfg config, dir string, o *ops, reported map[string]any) (map[string]metric, map[string]int, error) {
	b, setupS, err := setupMedian(cfg.workload, cfg.seed, dir, o, nil)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	st := b.loop(seconds(cfg.seconds), nil)
	describeLoop(st, reported)
	ms, n := endToEnd(st, setupS[0], o)
	return ms, n, nil
}

// tracedRun is the separate traced run. It sets up without and with
// spans, alternating, and runs the measured loop without and then with
// spans for a quarter of the time each, to report the tracing overhead
// on every end-to-end metric. It spends the other half probing the
// layers one at a time for the per-layer metrics. The spans go to
// cfg.spans.
func tracedRun(cfg config, dir string, o *ops, reported map[string]any) (map[string]metric, map[string]int, error) {
	tr := newTracer()
	b, setupS, err := setupMedian(cfg.workload, cfg.seed, dir, o, nil, tr)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	quarter := seconds(cfg.seconds / 4)
	untraced, _ := endToEnd(b.loop(quarter, nil), setupS[0], o)
	st := b.loop(quarter, tr)
	describeLoop(st, reported)
	traced, _ := endToEnd(st, setupS[1], o)

	p, err := newProbe(b, tr)
	if err != nil {
		return nil, nil, err
	}
	is := p.run(2 * quarter)
	p.close()
	ms, n := p.perLayer(is)
	for name, u := range untraced {
		gap := 0.0
		if u.Value != 0 {
			gap = 100 * (traced[name].Value - u.Value) / u.Value
		}
		ms["trace_overhead."+name] = metric{gap, "%"}
		n["trace_overhead."+name] = 1
	}
	reported["self_ms"] = tr.selfTimes()
	reported["spans"] = cfg.spans
	if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
		return nil, nil, err
	}
	if err := tr.write(cfg.spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	return ms, n, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// describeLoop records the loop's unchecked observations.
func describeLoop(st *loopStats, reported map[string]any) {
	reported["cycles"] = st.cycles
	reported["loop_s"] = st.elapsed.Seconds()
	sims := map[string]int{}
	for c, s := range st.cells {
		distinct := map[float64]bool{}
		for _, v := range s.simOn {
			distinct[v] = true
		}
		sims[c.name] = len(distinct)
	}
	reported["distinct_sim_times"] = sims
	if st.sessions > 0 {
		reported["server_sessions"] = st.sessions
	}
}

func printHuman(w io.Writer, ms map[string]metric, n map[string]int) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-34s %14.4f %-6s n=%d\n", name, ms[name].Value, ms[name].Unit, n[name])
	}
}
