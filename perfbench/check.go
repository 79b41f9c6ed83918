package main

import (
	"errors"
	"fmt"
	"slices"

	"blockwatch"
)

// The output checks. They cover what the program promises: a monitored
// run (in-process, remote or recorded) computes exactly what the
// unprotected program computes, raises no violation on a fault-free run,
// and reaches the same verdict wherever the monitor runs; a campaign's
// tally is a function of its seed. Simulated time, frame counts and
// server session counters depend on scheduling and are reported, never
// checked.

// outcome is the part of a run's result the output checks look at.
type outcome struct {
	Output     []uint64
	Detected   bool
	Violations []string
	Crashed    bool
	Hung       bool
}

func outcomeOf(r *blockwatch.RunResult) outcome {
	return outcome{
		Output:     r.Output,
		Detected:   r.Detected,
		Violations: r.Violations,
		Crashed:    r.Crashed,
		Hung:       r.Hung,
	}
}

// checkRun verifies a fault-free run against the unprotected reference
// output of the same cell: it finished, raised no violation, and its
// output is bit-identical.
func checkRun(ref []uint64, got outcome) error {
	switch {
	case got.Crashed:
		return errors.New("run crashed")
	case got.Hung:
		return errors.New("run hung")
	case got.Detected || len(got.Violations) > 0:
		first := "(none listed)"
		if len(got.Violations) > 0 {
			first = got.Violations[0]
		}
		return fmt.Errorf("false positive on a fault-free run: %d violations, first %s", len(got.Violations), first)
	case len(got.Output) != len(ref):
		return fmt.Errorf("output has %d words, reference has %d", len(got.Output), len(ref))
	}
	for i := range ref {
		if got.Output[i] != ref[i] {
			return fmt.Errorf("output word %d is %#x, reference %#x", i, got.Output[i], ref[i])
		}
	}
	return nil
}

// silentCorruption reports whether a run's output differs from the
// reference without the monitor noticing: the SDC of the coverage metric.
func silentCorruption(ref []uint64, got outcome) bool {
	if got.Detected || got.Crashed || got.Hung {
		return false
	}
	return !slices.Equal(ref, got.Output)
}

// checkVerdict verifies that a run whose monitor ran elsewhere (a remote
// daemon, a trace replay) reached the in-process verdict.
func checkVerdict(inproc, got outcome) error {
	if inproc.Detected != got.Detected {
		return fmt.Errorf("verdict differs: detected=%v, in-process detected=%v", got.Detected, inproc.Detected)
	}
	if len(inproc.Violations) != len(got.Violations) {
		return fmt.Errorf("verdict differs: %d violations, in-process %d", len(got.Violations), len(inproc.Violations))
	}
	for i := range inproc.Violations {
		if inproc.Violations[i] != got.Violations[i] {
			return fmt.Errorf("violation %d differs: %q, in-process %q", i, got.Violations[i], inproc.Violations[i])
		}
	}
	return nil
}

// tally is a campaign's full deterministic result.
type tally struct {
	Injected, Activated                  int
	Benign, Detected, Crashed, Hung, SDC int
}

func tallyOf(r *blockwatch.CampaignResult) tally {
	return tally{
		Injected: r.Injected, Activated: r.Activated,
		Benign: r.Benign, Detected: r.Detected, Crashed: r.Crashed, Hung: r.Hung, SDC: r.SDC,
	}
}

// checkTally verifies a campaign injected the requested number of faults
// and, when first is non-nil, that its tally equals the first campaign
// run with the same program, thread count and seed.
func checkTally(requested int, first *tally, got tally) error {
	if got.Injected != requested {
		return fmt.Errorf("campaign injected %d faults, requested %d", got.Injected, requested)
	}
	if first != nil && *first != got {
		return fmt.Errorf("campaign tally %+v differs from the first repeat %+v", got, *first)
	}
	return nil
}
