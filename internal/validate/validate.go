// Package validate orchestrates the paper's validation methodology
// (Fig. 1): measure the targeted micro-benchmarks on the reference board
// once, plug lmbench latency estimates into the model, race the unknown
// parameters with irace against the measurements, inspect the remaining
// per-component error, apply abstraction-error fixes (indirect predictor
// support, the decoder bug, array initialization, extra prefetcher
// options), and tune again.
package validate

import (
	"context"
	"fmt"
	"math"

	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/lmbench"
	"racesim/internal/par"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
)

// Measurement pairs one tuning instance with its board counters.
type Measurement struct {
	Bench    ubench.Bench
	Trace    *trace.Trace
	Counters hw.Counters
}

// MeasureSuite records every micro-benchmark once and measures it on the
// board — the one-time data collection of methodology step 4.
func MeasureSuite(board *hw.Board, opts ubench.Options) ([]Measurement, error) {
	return MeasureSuiteParallel(board, opts, 1, nil)
}

// MeasureSuiteParallel is MeasureSuite over a bounded worker pool, with
// traces recorded through a job's memo (nil: no memo), so a job that
// measures the suite on several boards or option sets emulates each
// distinct program once. Trace generation and board measurement are both
// deterministic per benchmark, so the result is identical to the
// sequential path, in suite order.
func MeasureSuiteParallel(board *hw.Board, opts ubench.Options, parallelism int, memo *tracememo.Memo) ([]Measurement, error) {
	benches := ubench.Suite()
	out := make([]Measurement, len(benches))
	err := par.ForEach(len(benches), parallelism, func(i int) error {
		b := benches[i]
		tr, err := b.TraceWith(opts, memo)
		if err != nil {
			return err
		}
		c, err := board.Measure(tr)
		if err != nil {
			return err
		}
		out[i] = Measurement{Bench: b, Trace: tr, Counters: c}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CPIError is the relative CPI prediction error of cfg on one measurement.
func CPIError(cfg sim.Config, m Measurement) (float64, error) {
	return cpiError(cfg, m, nil)
}

// cpiError is CPIError through an optional shared simulation cache — the
// single definition of the error metric and its zero-CPI guard.
func cpiError(cfg sim.Config, m Measurement, cache *simcache.Cache) (float64, error) {
	res, err := cache.Run(cfg, m.Trace)
	if err != nil {
		return 0, err
	}
	if m.Counters.CPI == 0 {
		return 0, fmt.Errorf("validate: zero hardware CPI for %s", m.Trace.Name)
	}
	return math.Abs(res.CPI()-m.Counters.CPI) / m.Counters.CPI, nil
}

// BenchError is a named per-benchmark error.
type BenchError struct {
	Name     string
	Category ubench.Category
	Error    float64
}

// Errors evaluates cfg against every measurement.
func Errors(cfg sim.Config, ms []Measurement) ([]BenchError, error) {
	return ErrorsWith(cfg, ms, nil, 1)
}

// ErrorsWith is Errors through an optional shared simulation cache and a
// bounded worker pool. Results are in measurement order, identical to the
// sequential path.
func ErrorsWith(cfg sim.Config, ms []Measurement, cache *simcache.Cache, parallelism int) ([]BenchError, error) {
	out := make([]BenchError, len(ms))
	err := par.ForEach(len(ms), parallelism, func(i int) error {
		m := ms[i]
		e, err := cpiError(cfg, m, cache)
		if err != nil {
			return err
		}
		out[i] = BenchError{Name: m.Bench.Name, Category: m.Bench.Category, Error: e}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkFinite rejects NaN/Inf per-benchmark errors. A non-finite error
// means a degenerate simulation (or measurement) upstream; averaging
// over it would silently poison every downstream summary and report, so
// it surfaces as an explicit error naming the benchmark instead.
func checkFinite(es []BenchError) error {
	for _, e := range es {
		if math.IsNaN(e.Error) || math.IsInf(e.Error, 0) {
			return fmt.Errorf("validate: non-finite error %v for benchmark %s (%s)", e.Error, e.Name, e.Category)
		}
	}
	return nil
}

// MeanError averages the per-benchmark errors (0 for an empty slice).
// Any NaN/Inf entry is an explicit error, never averaged over.
func MeanError(es []BenchError) (float64, error) {
	if err := checkFinite(es); err != nil {
		return 0, err
	}
	if len(es) == 0 {
		return 0, nil
	}
	s := 0.0
	for _, e := range es {
		s += e.Error
	}
	return s / float64(len(es)), nil
}

// MaxError returns the worst per-benchmark error; ok is false for an
// empty slice. Any NaN/Inf entry is an explicit error — under NaN the
// maximum is not even well-defined (every comparison is false).
func MaxError(es []BenchError) (worst BenchError, ok bool, err error) {
	if err := checkFinite(es); err != nil {
		return BenchError{}, false, err
	}
	if len(es) == 0 {
		return BenchError{}, false, nil
	}
	worst = es[0]
	for _, e := range es[1:] {
		if e.Error > worst.Error {
			worst = e
		}
	}
	return worst, true, nil
}

// CategoryErrors groups mean error per benchmark category — the step 5
// triage that points at the mismodeled component.
func CategoryErrors(es []BenchError) map[ubench.Category]float64 {
	sums := map[ubench.Category]float64{}
	counts := map[ubench.Category]int{}
	for _, e := range es {
		sums[e.Category] += e.Error
		counts[e.Category]++
	}
	out := map[ubench.Category]float64{}
	for c, s := range sums {
		out[c] = s / float64(counts[c])
	}
	return out
}

// CostWeights shapes the tuning cost function. The default is plain CPI
// error; adding branch weight implements the step 5 recommendation to
// include component metrics when chasing a specific model error.
type CostWeights struct {
	BranchMPKI float64
}

// Evaluator adapts the suite + board measurements to irace. When Cache is
// non-nil, simulation results are memoized across races, tuning rounds and
// (with disk persistence) whole processes: a configuration the survivor
// set already measured on an instance is never simulated again.
type Evaluator struct {
	Base    sim.Config
	Ms      []Measurement
	Weights CostWeights
	Cache   *simcache.Cache
}

// NumInstances implements irace.Evaluator.
func (e *Evaluator) NumInstances() int { return len(e.Ms) }

// Cost implements irace.Evaluator: the error of the configuration obtained
// by overlaying the assignment on the base model, on one benchmark.
func (e *Evaluator) Cost(a irace.Assignment, instance int) float64 {
	cfg, err := sim.Apply(e.Base, a)
	if err != nil {
		return math.Inf(1) // invalid combinations lose every race
	}
	m := e.Ms[instance]
	res, err := e.Cache.Run(cfg, m.Trace)
	if err != nil {
		return math.Inf(1)
	}
	cost := math.Abs(res.CPI()-m.Counters.CPI) / m.Counters.CPI
	if e.Weights.BranchMPKI > 0 {
		simMPKI := res.Branch.MPKI(res.Instructions)
		den := m.Counters.BranchMPKI
		if den < 1 {
			den = 1
		}
		cost += e.Weights.BranchMPKI * math.Abs(simMPKI-m.Counters.BranchMPKI) / den
	}
	return cost
}

// TuneOptions configures one tuning round.
type TuneOptions struct {
	Budget  int
	Seed    int64
	Weights CostWeights
	// ExcludeParams removes parameters from the search space (e.g. the
	// indirect-predictor knobs before the model supports them).
	ExcludeParams map[string]bool
	// Cache, when non-nil, memoizes simulation results across the race
	// (and across callers sharing the same cache).
	Cache *simcache.Cache
	// Parallelism bounds concurrent simulations (<=0: GOMAXPROCS).
	Parallelism int
	// Context, when non-nil, cancels the tuning round between race steps.
	Context context.Context
	Log     func(format string, args ...any)
}

// TuneResult is the outcome of one tuning round.
type TuneResult struct {
	Tuned  sim.Config
	Irace  *irace.Result
	Errors []BenchError
}

// Tune runs one irace round against the measurements and returns the tuned
// configuration (methodology step 4).
func Tune(base sim.Config, ms []Measurement, opt TuneOptions) (*TuneResult, error) {
	defs := sim.Params(base.Kind)
	var params []irace.Param
	for _, d := range defs {
		if opt.ExcludeParams[d.Name] {
			continue
		}
		params = append(params, irace.Param{Name: d.Name, Values: d.Values, Ordered: d.Ordered})
	}
	space, err := irace.NewSpace(params)
	if err != nil {
		return nil, err
	}
	eval := &Evaluator{Base: base, Ms: ms, Weights: opt.Weights, Cache: opt.Cache}
	tuner, err := irace.New(space, eval, irace.Options{
		Budget:      opt.Budget,
		Seed:        opt.Seed,
		Parallelism: opt.Parallelism,
		Context:     opt.Context,
		Log:         opt.Log,
	})
	if err != nil {
		return nil, err
	}
	res, err := tuner.Run()
	if err != nil {
		return nil, err
	}
	tuned, err := sim.Apply(base, res.Best)
	if err != nil {
		return nil, err
	}
	tuned.Name = base.Name + "-tuned"
	errs, err := ErrorsWith(tuned, ms, opt.Cache, opt.Parallelism)
	if err != nil {
		return nil, err
	}
	return &TuneResult{Tuned: tuned, Irace: res, Errors: errs}, nil
}

// SeedLatencies plugs lmbench estimates into a base configuration
// (methodology step 2), snapping to the discrete candidate values. The
// chase traces are recorded through memo (nil: no memo).
func SeedLatencies(base sim.Config, board *hw.Board, memo *tracememo.Memo) (sim.Config, error) {
	est, err := lmbench.EstimateWith(board, memo)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := base
	cfg.Mem.L1D.HitLatency = lmbench.Snap(est.L1Cycles, []int{2, 3, 4})
	// The L2 chase observes L1-miss + L2-hit time; subtract the L1 part.
	cfg.Mem.L2.HitLatency = lmbench.Snap(est.L2Cycles-cfg.Mem.L1D.HitLatency, []int{9, 12, 15, 18, 21})
	cfg.Mem.DRAM.LatencyCycles = lmbench.Snap(est.MemCycles, []int{140, 160, 180, 200, 220, 240})
	return cfg, nil
}
