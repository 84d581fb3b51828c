// Package chaos is a deterministic, seed-driven fault injector for the
// distributed sweep fabric. It exists to make the byte-identical-assembly
// guarantee testable under realistic failure, not just under the happy
// path: CI runs the full coordinator/worker smoke with an Injector armed
// and diffs the assembled artifact against a fault-free run.
//
// One Injector carries one parsed Spec and attaches at two points:
//
//   - the network: Transport wraps an http.RoundTripper and, per a seeded
//     schedule, drops requests, delays them, fails them with a synthesized
//     5xx, or truncates/corrupts the response body. Corruption always
//     zeroes a byte range, which can never survive JSON decoding
//     undetected — an injected fault is guaranteed to surface as an error
//     at the client, never as silently altered payload bytes;
//   - the engine: JobFault fires on job execution (panic on the Nth job,
//     stall the Nth job past its deadline) and MutateSnapshot poisons one
//     entry of the Nth exported cache delta so the receiving side must
//     prove its checksum verification.
//
// Every probabilistic decision draws from one mutex-guarded rand.Rand
// seeded by Spec.Seed, so a single-threaded request sequence replays the
// same fault schedule; counted faults (panic/stall/poison) are exact
// regardless of concurrency.
package chaos

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Spec declares what an Injector does. The zero value injects nothing.
type Spec struct {
	// Seed drives the probabilistic schedule (drop/delay/fail/truncate/
	// corrupt draws). Two injectors with equal specs make identical
	// decisions for identical call sequences.
	Seed int64
	// Drop is the probability a request never reaches the server (the
	// round trip fails with a transport error).
	Drop float64
	// Delay is the probability a request is held up to DelayMax before
	// being forwarded.
	Delay float64
	// DelayMax bounds an injected delay (default 100ms).
	DelayMax time.Duration
	// Fail is the probability a response is replaced by a synthesized
	// 500 with an identifiable body.
	Fail float64
	// Truncate is the probability a response body is cut short.
	Truncate float64
	// Corrupt is the probability a range of response body bytes is
	// zeroed (detectably: a zeroed range can never re-parse as JSON).
	Corrupt float64
	// PanicJob makes the Nth JobFault call panic (1-based; 0 = never).
	PanicJob int
	// StallJob makes the Nth JobFault call stall for StallFor or until
	// its context expires (1-based; 0 = never).
	StallJob int
	// StallFor is the injected stall duration (default 30s).
	StallFor time.Duration
	// PoisonDelta corrupts one entry checksum in the Nth MutateSnapshot
	// call (1-based; 0 = never).
	PoisonDelta int
}

// Parse reads the -chaos flag syntax: comma-separated key=value pairs,
//
//	seed=7,drop=0.05,delay=0.1,delaymax=200ms,fail=0.02,
//	truncate=0.02,corrupt=0.02,panic=1,stall=2,stallfor=5s,poison=1
//
// Probabilities are in [0,1]; counts are 1-based ("panic=1" = the first
// job panics). Unknown keys are errors so a typo'd fault silently
// injecting nothing cannot pass for a passing chaos run.
func Parse(s string) (Spec, error) {
	spec := Spec{}
	if strings.TrimSpace(s) == "" {
		return spec, fmt.Errorf("chaos: empty spec")
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("chaos: %q: want key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			spec.Seed, err = strconv.ParseInt(v, 10, 64)
		case "drop":
			spec.Drop, err = parseProb(k, v)
		case "delay":
			spec.Delay, err = parseProb(k, v)
		case "delaymax":
			spec.DelayMax, err = parseDuration(v)
		case "fail":
			spec.Fail, err = parseProb(k, v)
		case "truncate":
			spec.Truncate, err = parseProb(k, v)
		case "corrupt":
			spec.Corrupt, err = parseProb(k, v)
		case "panic":
			spec.PanicJob, err = parseCount(k, v)
		case "stall":
			spec.StallJob, err = parseCount(k, v)
		case "stallfor":
			spec.StallFor, err = parseDuration(v)
		case "poison":
			spec.PoisonDelta, err = parseCount(k, v)
		default:
			return spec, fmt.Errorf("chaos: unknown key %q (want seed, drop, delay, delaymax, fail, truncate, corrupt, panic, stall, stallfor, poison)", k)
		}
		if err != nil {
			return spec, fmt.Errorf("chaos: %s=%s: %v", k, v, err)
		}
	}
	return spec, nil
}

func parseProb(k, v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // also rejects NaN
		return 0, fmt.Errorf("probability %g outside [0,1]", p)
	}
	return p, nil
}

// parseDuration reads a non-negative duration: a negative one would mean
// no delay, which String renders by omitting the key.
func parseDuration(v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("duration %v is negative", d)
	}
	return d, nil
}

func parseCount(k, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("count %d is negative", n)
	}
	return n, nil
}

// String renders the spec in Parse's syntax (only non-zero fields).
func (s Spec) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	add("seed", strconv.FormatInt(s.Seed, 10))
	if s.Drop > 0 {
		add("drop", strconv.FormatFloat(s.Drop, 'g', -1, 64))
	}
	if s.Delay > 0 {
		add("delay", strconv.FormatFloat(s.Delay, 'g', -1, 64))
	}
	if s.DelayMax > 0 {
		add("delaymax", s.DelayMax.String())
	}
	if s.Fail > 0 {
		add("fail", strconv.FormatFloat(s.Fail, 'g', -1, 64))
	}
	if s.Truncate > 0 {
		add("truncate", strconv.FormatFloat(s.Truncate, 'g', -1, 64))
	}
	if s.Corrupt > 0 {
		add("corrupt", strconv.FormatFloat(s.Corrupt, 'g', -1, 64))
	}
	if s.PanicJob > 0 {
		add("panic", strconv.Itoa(s.PanicJob))
	}
	if s.StallJob > 0 {
		add("stall", strconv.Itoa(s.StallJob))
	}
	if s.StallFor > 0 {
		add("stallfor", s.StallFor.String())
	}
	if s.PoisonDelta > 0 {
		add("poison", strconv.Itoa(s.PoisonDelta))
	}
	return strings.Join(parts, ",")
}

// Counts reports how often each fault kind actually fired — what a chaos
// smoke asserts to prove the run was not accidentally fault-free.
type Counts struct {
	Dropped   int `json:"dropped"`
	Delayed   int `json:"delayed"`
	Failed    int `json:"failed"`
	Truncated int `json:"truncated"`
	Corrupted int `json:"corrupted"`
	Panics    int `json:"panics"`
	Stalls    int `json:"stalls"`
	Poisoned  int `json:"poisoned"`
}

func (c Counts) total() int {
	return c.Dropped + c.Delayed + c.Failed + c.Truncated + c.Corrupted +
		c.Panics + c.Stalls + c.Poisoned
}

// String renders the non-zero counters, "none" when nothing fired.
func (c Counts) String() string {
	type kv struct {
		k string
		n int
	}
	all := []kv{
		{"dropped", c.Dropped}, {"delayed", c.Delayed}, {"failed", c.Failed},
		{"truncated", c.Truncated}, {"corrupted", c.Corrupted},
		{"panics", c.Panics}, {"stalls", c.Stalls}, {"poisoned", c.Poisoned},
	}
	var parts []string
	for _, e := range all {
		if e.n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", e.n, e.k))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

// Injector executes one Spec. The zero Injector (and a nil *Injector)
// injects nothing, so callers thread "maybe chaos" without branching.
type Injector struct {
	spec Spec

	mu     sync.Mutex
	rng    *rand.Rand
	jobs   int // JobFault calls seen
	deltas int // MutateSnapshot calls seen
	counts Counts
}

// New builds an injector for a spec.
func New(spec Spec) *Injector {
	if spec.DelayMax <= 0 {
		spec.DelayMax = 100 * time.Millisecond
	}
	if spec.StallFor <= 0 {
		spec.StallFor = 30 * time.Second
	}
	return &Injector{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
}

// Spec returns the injector's parsed spec.
func (i *Injector) Spec() Spec {
	if i == nil {
		return Spec{}
	}
	return i.spec
}

// Counts snapshots the fault counters.
func (i *Injector) Counts() Counts {
	if i == nil {
		return Counts{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.counts
}

// draw returns a uniform [0,1) variate from the seeded stream.
func (i *Injector) draw() float64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Float64()
}
