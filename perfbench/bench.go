package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"blockwatch"
	"blockwatch/internal/metrics"
	"blockwatch/internal/remote"
)

// workload is one input set of the benchmark: the kernels, the thread
// counts, and what each step of the closed loop does with a cell.
type workload struct {
	name    string
	kernels []string
	threads []int
	kind    stepKind
}

type stepKind int

const (
	// stepProtect: one unprotected run, then one in-process protected run.
	stepProtect stepKind = iota
	// stepCampaign: one unprotected run, then one protected branch-flip
	// campaign.
	stepCampaign
	// stepRemote: one unprotected run, then one run streamed to a daemon
	// on a unix socket.
	stepRemote
)

var workloads = map[string]workload{
	"protect":  {"protect", blockwatch.Benchmarks(), []int{4, 32}, stepProtect},
	"campaign": {"campaign", []string{"fft", "radix", "water-nsquared"}, []int{campaignThreads}, stepCampaign},
	"remote":   {"remote", []string{"fft", "radix", "raytrace"}, []int{32}, stepRemote},
}

const (
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 9
	// campaignFaults is the fault count of every campaign call.
	campaignFaults = 50
	// campaignSeeds is the number of distinct campaign seeds per kernel.
	// The loop cycles through them; a seed's repeats must reproduce the
	// tally of its first campaign.
	campaignSeeds = 16
	// campaignThreads is the thread count of every campaign: the campaign
	// workload's and the traced run's inject probe.
	campaignThreads = 4
)

// kernel is one compiled and analyzed program.
type kernel struct {
	name string
	src  string
	prog *blockwatch.Program
	rep  *blockwatch.Report
}

// cell is one (kernel, thread count) pair with its reference results.
type cell struct {
	k       *kernel
	threads int
	name    string
	seed    uint64 // the seed of the program's rnd() inputs
	ref     []uint64
	inproc  outcome // the in-process protected run's result
	simOn   int64   // SimTime of the in-process protected reference run
	// campaign seeds and the first tally seen for each
	campSeeds []int64
	tallies   map[int64]tally
}

// hashSeed derives a seed from the benchmark seed and a label, so each
// cell gets its own input and the same --seed gives the same inputs.
func hashSeed(seed int64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return h.Sum64()
}

// server is a monitoring daemon started in-process on a unix socket.
type server struct {
	srv  *remote.Server
	addr string
	done chan error
}

func startServer(sock string, reg *metrics.Registry) (*server, error) {
	addr := "unix:" + sock
	ln, err := remote.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	s := &server{srv: remote.NewServer(remote.ServerConfig{Metrics: reg}), addr: addr, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits until its accept loop has returned.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// bench is one set-up workload, ready for the measured loop.
type bench struct {
	wl      workload
	seed    int64
	kernels []*kernel
	cells   []*cell
	srv     *server // remote workload only
	dir     string  // holds the sockets
	ops     *ops
}

// ops counts the operations a run attempted and what went wrong with
// them. A failed operation is a run or campaign call that returned an
// error or ended unhealthy; a wrong output is one the output checks
// rejected.
type ops struct {
	attempted int
	failed    []string
	wrong     []string
}

func (o *ops) fail(what string, err error) {
	o.failed = append(o.failed, fmt.Sprintf("%s: %v", what, err))
}

func (o *ops) check(what string, err error) {
	if err != nil {
		o.wrong = append(o.wrong, fmt.Sprintf("%s: %v", what, err))
	}
}

// setup compiles and analyzes the workload's kernels, makes every cell's
// reference runs, and starts the daemon of the remote workload. Its wall
// time is setup_s.
func setup(wl workload, seed int64, dir string, o *ops, tr *tracer) (*bench, error) {
	tr.newRun()
	defer tr.begin("setup", "")()
	b := &bench{wl: wl, seed: seed, dir: dir, ops: o}
	for _, name := range wl.kernels {
		src, err := blockwatch.BenchmarkSource(name)
		if err != nil {
			return nil, err
		}
		end := tr.begin("lower.compile", name)
		prog, err := blockwatch.Compile(src, name)
		end()
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		end = tr.begin("core.analyze", name)
		rep, err := prog.Analyze(blockwatch.AnalysisOptions{})
		end()
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", name, err)
		}
		k := &kernel{name: name, src: src, prog: prog, rep: rep}
		b.kernels = append(b.kernels, k)
		for _, th := range wl.threads {
			c, err := b.newCell(k, th, tr)
			if err != nil {
				return nil, err
			}
			b.cells = append(b.cells, c)
		}
	}
	if wl.kind == stepRemote {
		end := tr.begin("remote.server_start", "")
		srv, err := startServer(filepath.Join(dir, "setup.sock"), nil)
		end()
		if err != nil {
			return nil, err
		}
		b.srv = srv
	}
	return b, nil
}

// newCell makes a cell's reference runs: the unprotected run whose
// output every later run must reproduce, and the in-process protected
// run whose verdict a remote run must reproduce.
func (b *bench) newCell(k *kernel, threads int, tr *tracer) (*cell, error) {
	c := &cell{k: k, threads: threads, name: fmt.Sprintf("%s@%d", k.name, threads)}
	c.seed = hashSeed(b.seed, c.name)
	ref, _, err := b.run(c, "interp.reference", blockwatch.RunOptions{}, tr)
	if err != nil {
		return nil, err
	}
	if ref.Crashed || ref.Hung {
		return nil, fmt.Errorf("%s: reference run did not finish cleanly", c.name)
	}
	c.ref = ref.Output
	on, _, err := b.run(c, "monitor.reference", blockwatch.RunOptions{Protect: true}, tr)
	if err != nil {
		return nil, err
	}
	c.inproc, c.simOn = outcomeOf(on), on.SimTime
	b.ops.check(c.name+" protected reference", checkRun(c.ref, c.inproc))
	if b.wl.kind == stepCampaign {
		c.tallies = map[int64]tally{}
		for i := 0; i < campaignSeeds; i++ {
			c.campSeeds = append(c.campSeeds, int64(hashSeed(b.seed, fmt.Sprintf("%s/campaign%d", c.name, i))>>1))
		}
	}
	return c, nil
}

// run executes c's program once and returns the result and its wall
// time in ms. Threads, Seed and Analysis come from the cell. An error or
// an unhealthy monitor counts as a failed operation.
func (b *bench) run(c *cell, span string, ro blockwatch.RunOptions, tr *tracer) (*blockwatch.RunResult, float64, error) {
	ro.Threads, ro.Seed, ro.Analysis = c.threads, c.seed, c.k.rep
	b.ops.attempted++
	end := tr.begin(span, c.name)
	t0 := time.Now()
	res, err := c.k.prog.Run(ro)
	ms := msSince(t0)
	end()
	if err == nil && res.Health != "" && res.Health != "healthy" {
		err = fmt.Errorf("monitor health %s", res.Health)
	}
	if err == nil && (res.RemoteReconnects > 0 || res.SealedTrace != "") {
		err = fmt.Errorf("remote session reconnected %d times, sealed trace %q", res.RemoteReconnects, res.SealedTrace)
	}
	if err != nil {
		b.ops.fail(c.name+" "+span, err)
	}
	return res, ms, err
}

func (b *bench) close() {
	if b.srv != nil {
		b.srv.close()
	}
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// samples are one cell's measurements in the loop.
type samples struct {
	off, on       []float64 // wall ms of the unprotected and the protected (or faulty) runs
	simOff, simOn []float64 // SimTime of the same runs
}

// loopStats are what one measured loop observed.
type loopStats struct {
	elapsed time.Duration
	cycles  int
	// runs counts protected runs, or faulty runs in campaigns.
	runs int
	// perRun holds the wall ms of each protected run; for campaigns, the
	// mean faulty-run ms of each campaign call.
	perRun     []float64
	cells      map[*cell]*samples
	allocBytes uint64
	// activated and sdc feed coverage = 1 − sdc/activated, counting each
	// campaign seed once. In fault-free workloads every protected run
	// counts as activated and an SDC is a wrong output the monitor missed.
	activated, sdc int
	sessions       uint64 // daemon sessions served (remote only)
}

// loop runs the closed loop over the cells, in their fixed order, until
// d has passed and at least campaignSeeds passes are complete, so every
// campaign seed runs at least once.
func (b *bench) loop(d time.Duration, tr *tracer) *loopStats {
	st := &loopStats{cells: map[*cell]*samples{}}
	for _, c := range b.cells {
		st.cells[c] = &samples{}
	}
	var sessions0 uint64
	if b.srv != nil {
		sessions0 = b.srv.srv.Sessions()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for ; st.cycles < campaignSeeds || time.Since(t0) < d; st.cycles++ {
		for _, c := range b.cells {
			tr.newRun()
			end := tr.begin("step", c.name)
			b.step(c, st, tr)
			end()
		}
	}
	st.elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if b.srv != nil {
		st.sessions = b.srv.srv.Sessions() - sessions0
	}
	return st
}

// step is one closed-loop request on cell c.
func (b *bench) step(c *cell, st *loopStats, tr *tracer) {
	s := st.cells[c]
	off, offMs, err := b.run(c, "blockwatch.run.off", blockwatch.RunOptions{}, tr)
	if err != nil {
		return
	}
	b.ops.check(c.name+" unprotected", checkRun(c.ref, outcomeOf(off)))
	s.off, s.simOff = append(s.off, offMs), append(s.simOff, float64(off.SimTime))

	if b.wl.kind == stepCampaign {
		b.campaign(c, st, tr)
		return
	}
	ro, span := blockwatch.RunOptions{Protect: true}, "blockwatch.run.protect"
	if b.wl.kind == stepRemote {
		ro, span = blockwatch.RunOptions{Remote: b.srv.addr}, "blockwatch.run.remote"
	}
	on, onMs, err := b.run(c, span, ro, tr)
	if err != nil {
		return
	}
	got := outcomeOf(on)
	b.ops.check(c.name+" "+span, checkRun(c.ref, got))
	if b.wl.kind == stepRemote {
		b.ops.check(c.name+" remote verdict", checkVerdict(c.inproc, got))
	}
	st.runs++
	st.activated++
	if silentCorruption(c.ref, got) {
		st.sdc++
	}
	st.perRun = append(st.perRun, onMs)
	s.on, s.simOn = append(s.on, onMs), append(s.simOn, float64(on.SimTime))
}

// campaign runs one protected branch-flip campaign on c with the cell's
// campaign seed for this cycle.
func (b *bench) campaign(c *cell, st *loopStats, tr *tracer) {
	seed := c.campSeeds[st.cycles%len(c.campSeeds)]
	b.ops.attempted++
	end := tr.begin("blockwatch.campaign", c.name)
	res, err := c.k.prog.Campaign(blockwatch.CampaignOptions{
		Threads:  c.threads,
		Faults:   campaignFaults,
		Protect:  true,
		Seed:     seed,
		Analysis: c.k.rep,
		Workers:  runtime.NumCPU(),
	})
	end()
	if err != nil {
		b.ops.fail(c.name+" campaign", err)
		return
	}
	t := tallyOf(res)
	if first, ok := c.tallies[seed]; ok {
		b.ops.check(c.name+" campaign", checkTally(campaignFaults, &first, t))
	} else {
		b.ops.check(c.name+" campaign", checkTally(campaignFaults, nil, t))
		c.tallies[seed] = t
	}
	if st.cycles < len(c.campSeeds) { // the loop's first campaign with this seed
		st.activated += t.Activated
		st.sdc += t.SDC
	}
	var n int
	var total time.Duration
	for _, l := range res.Latency {
		n += l.Count
		total += l.Total
	}
	if n == 0 {
		return
	}
	runMs := float64(total.Nanoseconds()) / 1e6 / float64(n)
	st.runs += res.Injected
	st.perRun = append(st.perRun, runMs)
	s := st.cells[c]
	s.on, s.simOn = append(s.on, runMs), append(s.simOn, float64(c.simOn))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of one loop, with setupS the
// median set-up time, and the sample count behind each.
func endToEnd(st *loopStats, setupS float64, o *ops) (map[string]metric, map[string]int) {
	var ratios, simRatios []float64
	minCell := -1
	for _, s := range st.cells {
		ratios = append(ratios, median(s.on)/median(s.off))
		simRatios = append(simRatios, median(s.simOn)/median(s.simOff))
		if n := min(len(s.on), len(s.off)); minCell < 0 || n < minCell {
			minCell = n
		}
	}
	coverage := 1.0
	if st.activated > 0 {
		coverage = 1 - float64(st.sdc)/float64(st.activated)
	}
	ms := map[string]metric{
		"setup_s":          {setupS, "s"},
		"runs_per_s":       {float64(st.runs) / st.elapsed.Seconds(), "1/s"},
		"run_ms_p50":       {percentile(st.perRun, 50), "ms"},
		"run_ms_p90":       {percentile(st.perRun, 90), "ms"},
		"overhead_x":       {geomean(ratios), "x"},
		"sim_overhead_x":   {geomean(simRatios), "x"},
		"alloc_mb_per_run": {float64(st.allocBytes) / (1 << 20) / float64(max(st.runs, 1)), "MiB"},
		"coverage":         {coverage, "ratio"},
		"success_rate":     {1 - float64(len(o.failed))/float64(max(o.attempted, 1)), "ratio"},
	}
	n := map[string]int{
		"setup_s":          setupRepeats,
		"runs_per_s":       st.runs,
		"run_ms_p50":       len(st.perRun),
		"run_ms_p90":       len(st.perRun),
		"overhead_x":       minCell,
		"sim_overhead_x":   minCell,
		"alloc_mb_per_run": st.runs,
		"coverage":         st.activated,
		"success_rate":     o.attempted,
	}
	return ms, n
}

// setupMedian sets the workload up setupRepeats times for each tracer
// (nil: untraced), interleaving the tracers so none of them gets the
// cold first set-up every time. It returns the bench of the last set-up
// and, per tracer, the median set-up time in seconds.
func setupMedian(wl workload, seed int64, dir string, o *ops, tracers ...*tracer) (*bench, []float64, error) {
	secs := make([][]float64, len(tracers))
	var b *bench
	for i := 0; i < setupRepeats; i++ {
		for j, tr := range tracers {
			if b != nil {
				b.close()
			}
			// Each set-up starts from a collected heap, so one set-up does
			// not pay for the garbage of the one before.
			runtime.GC()
			t0 := time.Now()
			nb, err := setup(wl, seed, dir, o, tr)
			secs[j] = append(secs[j], time.Since(t0).Seconds())
			if err != nil {
				return nil, nil, err
			}
			b = nb
		}
	}
	medians := make([]float64, len(tracers))
	for j := range secs {
		medians[j] = median(secs[j])
	}
	return b, medians, nil
}

// scratchDir makes the directory that holds the run's unix sockets,
// inside the working directory so the benchmark writes nowhere else.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "perfbench-")
}
