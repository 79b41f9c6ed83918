package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"blockwatch"
)

// cleanRun is a real fault-free protected run with its unprotected
// reference, so the checker is tested on what the benchmark sees.
func cleanRun(t *testing.T) (ref []uint64, got outcome) {
	t.Helper()
	prog, err := blockwatch.LoadBenchmark("fft")
	if err != nil {
		t.Fatal(err)
	}
	off, err := prog.Run(blockwatch.RunOptions{Threads: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	on, err := prog.Run(blockwatch.RunOptions{Threads: 4, Seed: 3, Protect: true})
	if err != nil {
		t.Fatal(err)
	}
	return off.Output, outcomeOf(on)
}

func TestCheckRunPassesCleanRun(t *testing.T) {
	ref, got := cleanRun(t)
	if err := checkRun(ref, got); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	if err := checkVerdict(got, got); err != nil {
		t.Fatalf("identical verdicts rejected: %v", err)
	}
	if silentCorruption(ref, got) {
		t.Fatal("clean run counted as silent corruption")
	}
}

func TestCheckRunRejectsDoctoredOutputWord(t *testing.T) {
	ref, got := cleanRun(t)
	got.Output = append([]uint64(nil), got.Output...)
	got.Output[len(got.Output)/2] ^= 1 << 17
	err := checkRun(ref, got)
	if err == nil || !strings.Contains(err.Error(), "output word") {
		t.Fatalf("doctored output word accepted: %v", err)
	}
	if !silentCorruption(ref, got) {
		t.Fatal("undetected wrong output not counted as silent corruption")
	}
	if err := checkRun(ref, outcome{Output: got.Output[1:]}); err == nil {
		t.Fatal("truncated output accepted")
	}
}

func TestCheckRunRejectsFalsePositive(t *testing.T) {
	ref, got := cleanRun(t)
	doctored := got
	doctored.Detected = true
	doctored.Violations = []string{"branch#7 gen=3: threadID check failed"}
	if err := checkRun(ref, doctored); err == nil || !strings.Contains(err.Error(), "false positive") {
		t.Fatalf("injected false-positive violation accepted: %v", err)
	}
	if err := checkVerdict(got, doctored); err == nil {
		t.Fatal("remote verdict with an extra violation accepted")
	}
	for name, o := range map[string]outcome{
		"crash": {Output: ref, Crashed: true},
		"hang":  {Output: ref, Hung: true},
	} {
		if err := checkRun(ref, o); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCheckTally(t *testing.T) {
	prog, err := blockwatch.LoadBenchmark("fft")
	if err != nil {
		t.Fatal(err)
	}
	camp := func() tally {
		res, err := prog.Campaign(blockwatch.CampaignOptions{Threads: 4, Faults: 20, Protect: true, Seed: 5, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return tallyOf(res)
	}
	first, again := camp(), camp()
	if err := checkTally(20, nil, first); err != nil {
		t.Fatalf("first tally rejected: %v", err)
	}
	if err := checkTally(20, &first, again); err != nil {
		t.Fatalf("repeat with the same seed rejected: %v", err)
	}
	perturbed := again
	perturbed.SDC++
	perturbed.Detected--
	if err := checkTally(20, &first, perturbed); err == nil {
		t.Fatal("perturbed campaign tally accepted")
	}
	if err := checkTally(21, nil, first); err == nil {
		t.Fatal("campaign that injected fewer faults than requested accepted")
	}
}

// TestTracedRunSmoke runs the smallest traced run end to end and checks
// the result line carries every per-layer metric and tracing overhead.
func TestTracedRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	var stdout, stderr bytes.Buffer
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	code := run([]string{"--workload", "remote", "--seed", "2", "--seconds", "0.2", "--trace", "1", "--spans", spans}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	for _, name := range []string{"monitor.setup_ms", "wire.encode_ms", "remote.finish_ms", "inject.worker_busy", "trace_overhead.run_ms_p50"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "dial", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "finish", Start: 25, End: 60},
	}}
	self := tr.selfTimes()
	if got, want := self["run"], 50e-6; got != want {
		t.Fatalf("self time of run = %v ms, want %v", got, want)
	}
}
