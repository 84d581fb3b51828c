package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

func TestSummarizeTailHasTenBeyond(t *testing.T) {
	for _, n := range []int{11, 50, 200, 999, 1000, 1010, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: Summarize must sort
		}
		s := Summarize(xs)
		if s.N != n {
			t.Fatalf("n=%d: N = %d", n, s.N)
		}
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%.2f = %v has %d samples beyond it, want >= 10", n, s.TailQ, s.Tail, beyond)
		}
		if n >= 1010 && s.TailQ != 99 {
			t.Errorf("n=%d: tail percentile %.2f, want 99", n, s.TailQ)
		}
		if n < 1000 && s.TailQ >= 99 {
			t.Errorf("n=%d: tail percentile %.2f leaves too few samples beyond it", n, s.TailQ)
		}
	}
}

func TestSummarizeMedianAndSmallSamples(t *testing.T) {
	if s := Summarize([]float64{3, 1, 2}); s.Median != 2 || s.TailQ != 0 || !math.IsNaN(s.Tail) {
		t.Errorf("3 samples: %+v, want median 2 and no tail", s)
	}
	if s := Summarize([]float64{4, 1, 3, 2}); s.Median != 2.5 {
		t.Errorf("even median = %v, want 2.5", s.Median)
	}
	if s := Summarize(nil); s.N != 0 || !math.IsNaN(s.Median) {
		t.Errorf("empty: %+v", s)
	}
}

func TestOpenLoopTimesFromDueAndCountsRefusals(t *testing.T) {
	// One caller and a 20 ms job offered every 5 ms: every job waits for
	// the ones before it, and that wait is part of its latency.
	const n = 6
	p := RunOpenLoop(n, 200, 1, func(i int) error {
		time.Sleep(20 * time.Millisecond)
		if i == 2 {
			return errors.New("refused")
		}
		return nil
	})
	if p.Attempted != n || p.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want %d and 1", p.Attempted, p.Failed, n)
	}
	if !math.IsInf(p.LatencyMS[2], 1) {
		t.Errorf("refused job latency = %v, want +Inf, over any limit", p.LatencyMS[2])
	}
	// Job 5 falls due 25 ms in but cannot start before 5*20 ms.
	if p.LatencyMS[5] < 90 {
		t.Errorf("last job latency %.1f ms does not include its queueing behind a stall", p.LatencyMS[5])
	}
	if p.Backlog < 3 {
		t.Errorf("backlog %d, want the jobs still queued when the last fell due", p.Backlog)
	}
	for i, lag := range p.GenLagMS {
		if lag < 0 || lag > 15 {
			t.Errorf("generator lag of job %d = %.2f ms; the generator must not wait for callers", i, lag)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Start: at(20), End: at(40)},  // overlaps 2: covered once
		{ID: 4, Parent: 1, Start: at(90), End: at(120)}, // clipped to the parent
		{ID: 5, Parent: 2, Start: at(12), End: at(14)},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 60 * time.Millisecond, 2: 18 * time.Millisecond, 3: 20 * time.Millisecond, 4: 30 * time.Millisecond, 5: 2 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(0, "x")
	tr.End(id, nil)
	if id != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer recorded a span")
	}
	tr = NewTracer("run")
	root := tr.Begin(0, "root")
	child := tr.Begin(root, "child")
	tr.End(child, map[string]any{"n": 1})
	tr.End(root, nil)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != root || s[0].Trace != "run" || s[1].Trace != "run" {
		t.Errorf("spans %+v", s)
	}
}

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json equal to
// what the benchmark implements.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `perfbench --spec`; regenerate it")
	}
}
