package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Summary condenses a latency sample: the median and the highest
// percentile that still has at least ten samples beyond it, with the
// sample count. Refused or failed operations enter as +Inf, so they count
// as missing every latency limit.
type Summary struct {
	N      int
	Median float64
	// TailQ is the percentile reported in Tail (99 when the sample is
	// large enough, lower otherwise; 0 when fewer than 11 samples leave
	// no percentile with ten samples beyond it).
	TailQ float64
	Tail  float64
}

// Summarize computes the Summary of xs, preferring the 99th percentile
// for the tail. xs is not modified.
func Summarize(xs []float64) Summary {
	n := len(xs)
	s := Summary{N: n, Median: math.NaN(), Tail: math.NaN()}
	if n == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	if n%2 == 1 {
		s.Median = v[n/2]
	} else {
		s.Median = (v[n/2-1] + v[n/2]) / 2
	}
	if n < 11 {
		return s
	}
	// Nearest-rank: the q-th percentile is v[ceil(q/100*n)-1].
	idx := int(math.Ceil(0.99*float64(n))) - 1
	s.TailQ = 99
	if n-1-idx < 10 {
		idx = n - 11
		s.TailQ = 100 * float64(idx+1) / float64(n)
	}
	s.Tail = v[idx]
	return s
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return Summarize(xs).Median }

// Phase is the outcome of one open-loop phase at a fixed rate.
type Phase struct {
	Rate float64
	// LatencyMS holds each attempted job's latency from its due time;
	// failed or refused jobs hold +Inf.
	LatencyMS []float64
	Attempted int
	Failed    int
	// GenLagMS is how late the generator handed each job off after its
	// due time (the generator's own lateness, not queueing).
	GenLagMS []float64
	// Backlog is the number of jobs due but not finished when the last
	// job fell due; a backlog that grows with the phase length means the
	// offered rate exceeds capacity.
	Backlog int
}

// RunOpenLoop offers n jobs at rate per second, job i falling due at
// start + i/rate regardless of how earlier jobs fared, and runs them on at
// most conns concurrent callers. Each job is timed from its due time, so a
// stall also charges the wait it imposes on the jobs queued behind it. do
// returns an error for a failed or refused job.
func RunOpenLoop(n int, rate float64, conns int, do func(i int) error) Phase {
	p := Phase{Rate: rate, Attempted: n, LatencyMS: make([]float64, n), GenLagMS: make([]float64, n)}
	if n == 0 {
		return p
	}
	type item struct {
		i   int
		due time.Time
	}
	// Sized to every job so the generator never blocks on slow callers:
	// queueing belongs to the system under test, not the generator.
	queue := make(chan item, n)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		finished int
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				err := do(it.i)
				now := time.Now()
				lat := float64(now.Sub(it.due)) / float64(time.Millisecond)
				mu.Lock()
				if err != nil {
					lat = math.Inf(1)
					p.Failed++
				}
				p.LatencyMS[it.i] = lat
				finished++
				mu.Unlock()
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.GenLagMS[i] = float64(time.Since(due)) / float64(time.Millisecond)
		if i == n-1 {
			mu.Lock()
			p.Backlog = i - finished
			mu.Unlock()
		}
		queue <- item{i: i, due: due}
	}
	close(queue)
	wg.Wait()
	return p
}

// Span is one timed call the benchmark made into a layer. Spans of one
// workload run share Trace; Parent is 0 for a root.
type Span struct {
	Trace  string         `json:"trace"`
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  time.Time      `json:"start"`
	End    time.Time      `json:"end"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Tracer keeps spans in memory until the run writes them out. The zero
// value is not usable; a nil *Tracer records nothing, which is how the
// untimed paths skip tracing.
type Tracer struct {
	mu    sync.Mutex
	trace string
	spans []Span
}

// NewTracer starts a trace with the given identifier.
func NewTracer(trace string) *Tracer { return &Tracer{trace: trace} }

// Begin opens a span under parent and returns its id.
func (t *Tracer) Begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Now()})
	return len(t.spans)
}

// End closes span id, attaching attrs (may be nil).
func (t *Tracer) End(id int, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Now()
	t.spans[id-1].Attrs = attrs
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// SelfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover (overlapping children are
// counted once, and child time outside the parent is ignored).
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		var covered time.Duration
		var curStart, curEnd time.Time
		open := false
		for _, k := range kids {
			ks, ke := k.Start, k.End
			if ks.Before(s.Start) {
				ks = s.Start
			}
			if ke.After(s.End) {
				ke = s.End
			}
			if !ke.After(ks) {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = ks, ke, true
			case ks.After(curEnd):
				covered += curEnd.Sub(curStart)
				curStart, curEnd = ks, ke
			case ke.After(curEnd):
				curEnd = ke
			}
		}
		if open {
			covered += curEnd.Sub(curStart)
		}
		out[s.ID] = s.Duration() - covered
	}
	return out
}

// cpuTime is the user plus system CPU time the process has used, over
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTime is the time the hypervisor has kept this machine's vCPUs
// from running when they were ready to (the steal column of /proc/stat,
// summed over CPUs; 0 on bare metal or where the file is missing).
func stolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// userHZ is the tick rate /proc/stat counts in (USER_HZ, 100 on every
// Linux ABI Go supports).
const userHZ = 100

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
