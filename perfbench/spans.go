package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. The benchmark records spans
// around its own calls into the program's packages; the program itself
// is not instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Run    int    `json:"run"`    // spans of one operation share it
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the benchmark ends. It is used from
// one goroutine only: the benchmark is a single closed-loop client, and
// the program calls a Sink's Close on the goroutine that called
// interp.Run. A nil *tracer records nothing, so the untraced path pays
// one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the open spans, innermost last
	run   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newRun starts a new operation: spans begun from now on share its ID.
func (t *tracer) newRun() {
	if t != nil {
		t.run++
	}
}

// begin opens a span named name, child of the innermost open span, and
// returns a function that closes it.
func (t *tracer) begin(name, cell string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Run: t.run, Name: name, Cell: cell,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// byCell returns the durations in ms of the spans named name, grouped by
// cell.
func (t *tracer) byCell(name string) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Cell] = append(out[s.Cell], s.ms())
		}
	}
	return out
}

// cellMedians returns the median duration in ms of the spans named name
// in each cell.
func (t *tracer) cellMedians(name string) map[string]float64 {
	out := map[string]float64{}
	for c, ds := range t.byCell(name) {
		out[c] = median(ds)
	}
	return out
}

// meanOfCellMedians averages the per-cell medians of the spans named
// name over the cells, so every cell of the workload weighs the same.
func (t *tracer) meanOfCellMedians(name string) float64 {
	var ms []float64
	for _, m := range t.cellMedians(name) {
		ms = append(ms, m)
	}
	return mean(ms)
}

// gapMs averages over the cells the difference of the per-cell medians
// of two span names: the time a layer adds on top of another run mode.
func (t *tracer) gapMs(with, without string) float64 {
	a, b := t.cellMedians(with), t.cellMedians(without)
	var gaps []float64
	for c, m := range a {
		if base, ok := b[c]; ok {
			gaps = append(gaps, m-base)
		}
	}
	return mean(gaps)
}

// selfTimes returns, per span name, the total self time in ms: each
// span's duration minus the part of it covered by its child spans.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-covered(children[s.ID])) / 1e6
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var total int64
	lo, hi := sorted[0].Start, sorted[0].End
	for _, s := range sorted[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// write stores the spans as JSON lines at path, followed by one line
// with every span name's total self time in ms.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"self_ms": t.selfTimes()}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
