package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"blockwatch"
	"blockwatch/internal/core"
	"blockwatch/internal/interp"
	"blockwatch/internal/ir"
	"blockwatch/internal/lower"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
	"blockwatch/internal/remote"
	"blockwatch/internal/trace"
	"blockwatch/internal/wire"
)

// injectProbeFaults is the fault count of each inject-probe campaign.
const injectProbeFaults = 20

// outcomes are the campaign outcome classes of CampaignResult.Latency.
var outcomes = []string{"not-activated", "benign", "detected", "crash", "hang", "sdc"}

// probe measures the layers one at a time on the workload's cells, by
// calling each layer package directly and recording a span around every
// call. It is the per-layer half of the traced run.
type probe struct {
	b      *bench
	tr     *tracer
	srv    *server
	srvReg *metrics.Registry // the daemon's: wire decode and session counters
	monReg *metrics.Registry // the in-process monitor's, one extra run per cell
	mods   map[*kernel]*ir.Module
	plans  map[*kernel]map[int]*core.CheckPlan

	branches, events, traceBytes, frames map[*cell]float64
	setupMB                              map[*cell][]float64
}

func newProbe(b *bench, tr *tracer) (*probe, error) {
	p := &probe{
		b: b, tr: tr,
		srvReg: metrics.NewRegistry(), monReg: metrics.NewRegistry(),
		mods: map[*kernel]*ir.Module{}, plans: map[*kernel]map[int]*core.CheckPlan{},
		branches: map[*cell]float64{}, events: map[*cell]float64{},
		traceBytes: map[*cell]float64{}, frames: map[*cell]float64{},
		setupMB: map[*cell][]float64{},
	}
	srv, err := startServer(b.dir+"/probe.sock", p.srvReg)
	if err != nil {
		return nil, err
	}
	p.srv = srv
	return p, nil
}

func (p *probe) close() { p.srv.close() }

// run measures every layer on every cell, cycling until d has passed,
// then runs the inject probe once.
func (p *probe) run(d time.Duration) *injectStats {
	t0 := time.Now()
	for cycle := 0; cycle == 0 || time.Since(t0) < d; cycle++ {
		for _, k := range p.b.kernels {
			p.compile(k)
		}
		for _, c := range p.b.cells {
			if p.mods[c.k] != nil {
				p.cell(c)
			}
		}
	}
	return p.inject()
}

// compile times the front end and the analysis of one kernel.
func (p *probe) compile(k *kernel) {
	o := p.b.ops
	p.tr.newRun()
	o.attempted++
	end := p.tr.begin("lower.compile", k.name)
	mod, err := lower.Compile(k.src, k.name)
	if err == nil {
		err = lower.CheckSPMD(mod)
	}
	end()
	if err != nil {
		o.fail(k.name+" lower.Compile", err)
		return
	}
	o.attempted++
	end = p.tr.begin("core.analyze", k.name)
	a, err := core.Analyze(mod, core.Options{})
	end()
	if err != nil {
		o.fail(k.name+" core.Analyze", err)
		return
	}
	p.mods[k], p.plans[k] = mod, a.Plans
}

// interpRun runs the interpreter once under a span and checks the
// output; monitored runs must also end healthy without a violation.
func (p *probe) interpRun(c *cell, span string, opts interp.Options) *interp.Result {
	o := p.b.ops
	opts.Threads, opts.Seed = c.threads, c.seed
	if opts.Mode != interp.MonitorOff && opts.Mode != 0 {
		opts.Plans = p.plans[c.k]
	}
	o.attempted++
	end := p.tr.begin(span, c.name)
	res, err := interp.Run(p.mods[c.k], opts)
	end()
	if err == nil && res.MonitorHealth != monitor.Healthy {
		err = fmt.Errorf("monitor health %s", res.MonitorHealth)
	}
	if err != nil {
		o.fail(c.name+" "+span, err)
		return nil
	}
	got := interpOutcome(res)
	o.check(c.name+" "+span, checkRun(c.ref, got))
	if opts.Mode == interp.MonitorActive {
		o.check(c.name+" "+span+" verdict", checkVerdict(c.inproc, got))
	}
	return res
}

func interpOutcome(r *interp.Result) outcome {
	got := outcome{Output: r.Output, Detected: r.Detected, Crashed: r.Crashed(), Hung: r.Hung()}
	for _, v := range r.Violations {
		got.Violations = append(got.Violations, v.String())
	}
	return got
}

// cell measures every layer once on c.
func (p *probe) cell(c *cell) {
	p.tr.newRun()
	if res := p.interpRun(c, "interp.run.off", interp.Options{}); res != nil {
		p.branches[c] = float64(sum(res.BranchCounts))
	}
	if res := p.interpRun(c, "interp.run.drain", interp.Options{Mode: interp.MonitorDrainOnly}); res != nil {
		p.events[c] = float64(sum(res.EventCounts))
	}
	p.interpRun(c, "interp.run.active", interp.Options{Mode: interp.MonitorActive})
	p.interpRun(c, "interp.run.metrics", interp.Options{Mode: interp.MonitorActive, Metrics: p.monReg})
	p.monitorSetup(c)
	if data := p.record(c); data != nil {
		p.decode(c, data)
		p.replay(c, data)
	}
	p.remote(c)
}

func sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

// monitorSetup times a bare monitor's life at c's thread count with no
// events: New, Start, one Sender per thread, Close. It also records the
// bytes that allocated.
func (p *probe) monitorSetup(c *cell) {
	o := p.b.ops
	o.attempted++
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := p.tr.begin("monitor.setup", c.name)
	endNew := p.tr.begin("monitor.new", c.name)
	mon, err := monitor.New(monitor.Config{NumThreads: c.threads, Plans: p.plans[c.k]})
	endNew()
	if err != nil {
		end()
		o.fail(c.name+" monitor.New", err)
		return
	}
	endStart := p.tr.begin("monitor.start", c.name)
	mon.Start()
	endStart()
	endSenders := p.tr.begin("monitor.senders", c.name)
	for tid := 0; tid < c.threads; tid++ {
		mon.Sender(tid)
	}
	endSenders()
	endClose := p.tr.begin("monitor.close", c.name)
	mon.Close()
	endClose()
	end()
	runtime.ReadMemStats(&m1)
	p.setupMB[c] = append(p.setupMB[c], float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
}

// record runs c with a trace recorder as the sink and returns the trace.
func (p *probe) record(c *cell) []byte {
	o := p.b.ops
	var buf bytes.Buffer
	o.attempted++
	end := p.tr.begin("trace.record", c.name)
	rec, err := trace.NewRecorder(&buf, trace.RecorderConfig{
		Program: c.k.name, NumThreads: c.threads, Plans: p.plans[c.k],
	})
	var res *interp.Result
	if err == nil {
		res, err = interp.Run(p.mods[c.k], interp.Options{
			Threads: c.threads, Seed: c.seed, Mode: interp.MonitorActive, Plans: p.plans[c.k], Sink: rec,
		})
	}
	end()
	if err == nil && res.MonitorHealth != monitor.Healthy {
		err = fmt.Errorf("recorder health %s", res.MonitorHealth)
	}
	if err != nil {
		o.fail(c.name+" trace.record", err)
		return nil
	}
	got := interpOutcome(res)
	o.check(c.name+" recorded run", checkRun(c.ref, got))
	o.check(c.name+" recorded run verdict", checkVerdict(c.inproc, got))
	p.traceBytes[c] = float64(buf.Len())
	return buf.Bytes()
}

// decode times reading every frame of a recorded trace.
func (p *probe) decode(c *cell, data []byte) {
	o := p.b.ops
	o.attempted++
	end := p.tr.begin("wire.decode", c.name)
	rd := wire.NewReader(bytes.NewReader(data))
	var f wire.Frame
	frames := 0
	var err error
	for {
		if err = rd.ReadFrameInto(&f); err != nil {
			break
		}
		frames++
	}
	end()
	if err != io.EOF {
		o.fail(c.name+" wire.ReadFrameInto", err)
		return
	}
	p.frames[c] = float64(frames)
}

// replay times checking a recorded trace offline and checks that the
// replayed verdict is the in-process one.
func (p *probe) replay(c *cell, data []byte) {
	o := p.b.ops
	o.attempted++
	end := p.tr.begin("trace.replay", c.name)
	out, err := trace.Replay(bytes.NewReader(data), trace.ReplayConfig{})
	end()
	if err == nil && (!out.Clean || out.Health != monitor.Healthy) {
		err = fmt.Errorf("replay clean=%v health %s", out.Clean, out.Health)
	}
	if err != nil {
		o.fail(c.name+" trace.Replay", err)
		return
	}
	got := outcome{Output: c.ref, Detected: out.Detected}
	for _, v := range out.Violations {
		got.Violations = append(got.Violations, v.String())
	}
	o.check(c.name+" replay verdict", checkVerdict(c.inproc, got))
}

// finishTimer wraps a remote client to time its Close, which interp.Run
// calls on its caller's goroutine once every thread has exited: Close
// drains the relay, sends the finish frame and waits for the daemon's
// verdict.
type finishTimer struct {
	*remote.Client
	tr   *tracer
	cell string
}

func (f finishTimer) Close() {
	defer f.tr.begin("remote.finish", f.cell)()
	f.Client.Close()
}

// remote runs c streamed to the probe's daemon: dial, run, finish.
func (p *probe) remote(c *cell) {
	o := p.b.ops
	o.attempted++
	end := p.tr.begin("remote.run", c.name)
	endDial := p.tr.begin("remote.dial", c.name)
	client, err := remote.Dial(p.srv.addr, remote.ClientConfig{
		Program: c.k.name, NumThreads: c.threads, Plans: p.plans[c.k],
	})
	endDial()
	var res *interp.Result
	if err == nil {
		res, err = interp.Run(p.mods[c.k], interp.Options{
			Threads: c.threads, Seed: c.seed, Mode: interp.MonitorActive, Plans: p.plans[c.k],
			Sink: finishTimer{client, p.tr, c.name},
		})
	}
	end()
	if err != nil && client != nil && res == nil {
		client.Close() // interp.Run closes only a sink it started
	}
	if err == nil && res.MonitorHealth != monitor.Healthy {
		err = fmt.Errorf("remote health %s", res.MonitorHealth)
	}
	if err == nil && (client.Reconnects() > 0 || client.SealedSpool() != "") {
		err = fmt.Errorf("remote session reconnected %d times, sealed %q", client.Reconnects(), client.SealedSpool())
	}
	if err != nil {
		o.fail(c.name+" remote", err)
		return
	}
	got := interpOutcome(res)
	o.check(c.name+" remote run", checkRun(c.ref, got))
	o.check(c.name+" remote verdict", checkVerdict(c.inproc, got))
}

// injectStats aggregates the inject probe's campaigns.
type injectStats struct {
	goldenMs            []float64
	latency             map[string]blockwatch.LatencyStats
	busy, capacity      time.Duration
	injected, activated int
	hung                int
}

// inject runs one small protected branch-flip campaign per kernel at
// campaignThreads threads.
func (p *probe) inject() *injectStats {
	o := p.b.ops
	is := &injectStats{latency: map[string]blockwatch.LatencyStats{}}
	workers := runtime.NumCPU()
	for _, k := range p.b.kernels {
		p.tr.newRun()
		o.attempted++
		end := p.tr.begin("inject.campaign", k.name)
		t0 := time.Now()
		res, err := k.prog.Campaign(blockwatch.CampaignOptions{
			Threads: campaignThreads, Faults: injectProbeFaults, Protect: true,
			Seed: int64(hashSeed(p.b.seed, k.name+"/inject") >> 1), Analysis: k.rep, Workers: workers,
		})
		wall := time.Since(t0)
		end()
		if err != nil {
			o.fail(k.name+" inject probe", err)
			continue
		}
		o.check(k.name+" inject probe", checkTally(injectProbeFaults, nil, tallyOf(res)))
		// Before the injection phase the campaign makes its golden run.
		is.goldenMs = append(is.goldenMs, float64((wall-res.Elapsed).Nanoseconds())/1e6)
		for name, l := range res.Latency {
			agg := is.latency[name]
			agg.Count += l.Count
			agg.Total += l.Total
			is.latency[name] = agg
			is.busy += l.Total
		}
		is.capacity += res.Elapsed * time.Duration(workers)
		is.injected += res.Injected
		is.activated += res.Activated
		is.hung += res.Hung
	}
	return is
}

// perLayer computes the per-layer metrics from the probe's spans and
// counters, and the sample count behind each.
func (p *probe) perLayer(is *injectStats) (map[string]metric, map[string]int) {
	tr := p.tr
	ms := map[string]metric{}
	n := map[string]int{}
	put := func(name string, v float64, unit string, samples int) {
		ms[name] = metric{v, unit}
		n[name] = samples
	}
	spans := func(name string) int {
		k := 0
		for _, ds := range tr.byCell(name) {
			k += len(ds)
		}
		return k
	}
	cells := len(p.b.cells)

	put("lower.compile_ms", tr.meanOfCellMedians("lower.compile"), "ms", spans("lower.compile"))
	put("core.analyze_ms", tr.meanOfCellMedians("core.analyze"), "ms", spans("core.analyze"))
	put("interp.run_ms", tr.meanOfCellMedians("interp.run.off"), "ms", spans("interp.run.off"))
	put("interp.branches_per_run", meanOf(p.branches), "count", cells)
	put("interp.events_per_run", meanOf(p.events), "count", cells)

	var setupMB []float64
	for _, xs := range p.setupMB {
		setupMB = append(setupMB, median(xs))
	}
	put("monitor.setup_ms", tr.meanOfCellMedians("monitor.setup"), "ms", spans("monitor.setup"))
	put("monitor.setup_mb", mean(setupMB), "MiB", spans("monitor.setup"))
	put("monitor.send_ms", tr.gapMs("interp.run.drain", "interp.run.off"), "ms", spans("interp.run.drain"))
	var perEvent []float64
	drain, off := tr.cellMedians("interp.run.drain"), tr.cellMedians("interp.run.off")
	for _, c := range p.b.cells {
		if ev := p.events[c]; ev > 0 {
			perEvent = append(perEvent, (drain[c.name]-off[c.name])*1e6/ev)
		}
	}
	put("monitor.send_ns_per_event", mean(perEvent), "ns", spans("interp.run.drain"))
	put("monitor.check_ms", tr.gapMs("interp.run.active", "interp.run.drain"), "ms", spans("interp.run.active"))

	snap := p.monReg.Snapshot()
	hwm, _ := snap.Gauge("bw_monitor_queue_depth_hwm")
	batch, _ := snap.Histogram("bw_monitor_batch_size")
	genClose, _ := snap.Histogram("bw_monitor_gen_close_ns")
	runs := spans("interp.run.metrics")
	put("monitor.queue_hwm", float64(hwm), "count", runs)
	put("monitor.batch_mean", batch.Mean(), "count", int(batch.Count))
	put("monitor.gen_close_us", genClose.Mean()/1e3, "us", int(genClose.Count))

	put("wire.encode_ms", tr.gapMs("trace.record", "interp.run.active"), "ms", spans("trace.record"))
	put("wire.bytes_per_run", meanOf(p.traceBytes), "B", cells)
	put("wire.frames_per_run", meanOf(p.frames), "count", cells)
	put("wire.decode_ms", tr.meanOfCellMedians("wire.decode"), "ms", spans("wire.decode"))
	put("trace.replay_ms", tr.meanOfCellMedians("trace.replay"), "ms", spans("trace.replay"))

	srvSnap := p.srvReg.Snapshot()
	events, _ := srvSnap.Counter("bw_server_session_events_total")
	frames, _ := srvSnap.Counter("bw_wire_rx_frames_total")
	put("remote.session_ms", tr.gapMs("remote.run", "interp.run.active"), "ms", spans("remote.run"))
	put("remote.dial_ms", tr.meanOfCellMedians("remote.dial"), "ms", spans("remote.dial"))
	put("remote.finish_ms", tr.meanOfCellMedians("remote.finish"), "ms", spans("remote.finish"))
	put("remote.events_per_frame", float64(events)/float64(max(frames, 1)), "count", int(frames))

	put("inject.golden_ms", mean(is.goldenMs), "ms", len(is.goldenMs))
	for _, name := range outcomes {
		l := is.latency[name]
		put("inject.run_ms."+name, float64(l.Mean().Nanoseconds())/1e6, "ms", l.Count)
	}
	put("inject.activated_share", float64(is.activated)/float64(max(is.injected, 1)), "ratio", is.injected)
	put("inject.hang_share", float64(is.hung)/float64(max(is.injected, 1)), "ratio", is.injected)
	put("inject.worker_busy", is.busy.Seconds()/max(is.capacity.Seconds(), 1e-9), "ratio", is.injected)
	return ms, n
}

func meanOf(m map[*cell]float64) float64 {
	var xs []float64
	for _, x := range m {
		xs = append(xs, x)
	}
	return mean(xs)
}
