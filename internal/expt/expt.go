package expt

import (
	"context"
	"fmt"
	"sort"
	"time"

	"racesim/internal/hw"
	"racesim/internal/perturb"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
	"racesim/internal/validate"
	"racesim/internal/workload"
)

// Options sizes the experiment runs. Zero values select modest defaults
// suitable for minutes-scale regeneration; the paper-scale knobs are
// documented in `racesim experiments` (docs/cli.md).
type Options struct {
	UbenchScale     float64
	WorkloadEvents  int
	BudgetRound1    int
	BudgetRound2    int
	PerturbRestarts int
	Seed            int64
	// Parallelism bounds concurrent simulation units across every
	// experiment (<=0: GOMAXPROCS). Output is byte-identical for any
	// value: simulation is deterministic and results are reassembled in
	// submission order.
	Parallelism int
	// Cache, when non-nil, memoizes simulation results across all
	// experiments (and across processes via simcache LoadFile/SaveFile).
	Cache *simcache.Cache
	// Context, when non-nil, cancels experiment execution: the Runner
	// checks it before dispatching each simulation unit and the tuning
	// pipelines check it per race step, so a cancelled sweep stops within
	// one simulation batch.
	Context context.Context
	Log     func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.WorkloadEvents <= 0 {
		o.WorkloadEvents = 60_000
	}
	if o.BudgetRound1 <= 0 {
		o.BudgetRound1 = 2500
	}
	if o.BudgetRound2 <= 0 {
		o.BudgetRound2 = 3500
	}
	if o.PerturbRestarts <= 0 {
		o.PerturbRestarts = 2
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// Context caches the expensive artifacts (boards, tuned models, workload
// measurements) across experiments and owns the Runner every experiment
// submits its simulation units to. It also owns the job's trace memo:
// every trace the job synthesizes (micro-benchmarks, lmbench chases,
// Table II workloads) goes through it, so each distinct trace is built
// once per Context and released with it.
type Context struct {
	opts   Options
	plat   *hw.Platform
	runner *Runner
	memo   *tracememo.Memo

	a53Stages []validate.StageResult
	a72Stages []validate.StageResult

	specA53 []perturb.Workload
	specA72 []perturb.Workload

	ms map[*hw.Board][]validate.Measurement
}

// NewContext builds a context over the reference platform.
func NewContext(opts Options) (*Context, error) {
	plat, err := hw.Firefly()
	if err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	return &Context{
		opts: o, plat: plat,
		runner: NewRunner(o.Cache, o.Parallelism).WithContext(o.Context),
		memo:   tracememo.New(0, 0),
		ms:     map[*hw.Board][]validate.Measurement{},
	}, nil
}

// Work counts what a job synthesized and measured, and how much of it
// the job's memos answered from earlier work. It goes to stderr beside
// the cache statistics, never into rendered output.
type Work struct {
	Traces tracememo.Stats
	Boards hw.MeasureStats
}

// String is the stderr summary line.
func (w Work) String() string {
	return fmt.Sprintf("synthesis: %d emulated, %d reused; board: %d simulated, %d reused",
		w.Traces.Misses, w.Traces.Hits, w.Boards.Simulated, w.Boards.Reused)
}

// Work reports the context's synthesis and board-measurement counts:
// the reference boards plus any other board the suite was measured on
// (a noise sweep's re-noised boards).
func (c *Context) Work() Work {
	w := Work{Traces: c.memo.Stats()}
	boards := []*hw.Board{c.plat.A53, c.plat.A72}
	for b := range c.ms {
		if b != c.plat.A53 && b != c.plat.A72 {
			boards = append(boards, b)
		}
	}
	for _, b := range boards {
		st := b.Stats()
		w.Boards.Simulated += st.Simulated
		w.Boards.Reused += st.Reused
	}
	return w
}

// Platform exposes the reference boards.
func (c *Context) Platform() *hw.Platform { return c.plat }

// Runner exposes the shared worker pool + cache.
func (c *Context) Runner() *Runner { return c.runner }

// Options exposes the sizing knobs the context was built with, so layered
// drivers (the scenario engine) can derive per-unit budgets and seeds from
// the same source of truth.
func (c *Context) Options() Options { return c.opts }

// Measurements lazily records and measures the micro-benchmark suite on a
// board, memoized by board identity (so re-noised or otherwise rebuilt
// boards never alias the reference ones): every consumer of the tuning
// instances (Fig2, budget sweeps, ad-hoc tuning rounds) shares one
// measurement pass per board.
func (c *Context) Measurements(board *hw.Board) ([]validate.Measurement, error) {
	if ms, ok := c.ms[board]; ok {
		return ms, nil
	}
	ms, err := validate.MeasureSuiteParallel(board, ubench.Options{Scale: c.opts.UbenchScale}, c.runner.Parallelism(), c.memo)
	if err != nil {
		return nil, err
	}
	c.ms[board] = ms
	return ms, nil
}

// StagesA53 lazily runs the full validation pipeline for the in-order core.
func (c *Context) StagesA53() ([]validate.StageResult, error) {
	if c.a53Stages != nil {
		return c.a53Stages, nil
	}
	st, err := validate.Pipeline(c.plat.A53, sim.PublicA53(), validate.PipelineOptions{
		BudgetRound1: c.opts.BudgetRound1,
		BudgetRound2: c.opts.BudgetRound2,
		Seed:         c.opts.Seed,
		UbenchScale:  c.opts.UbenchScale,
		Cache:        c.runner.Cache(),
		Traces:       c.memo,
		Parallelism:  c.runner.Parallelism(),
		Context:      c.opts.Context,
		Log:          c.opts.Log,
	})
	if err != nil {
		return nil, err
	}
	c.a53Stages = st
	return st, nil
}

// StagesA72 lazily runs the pipeline for the out-of-order core.
func (c *Context) StagesA72() ([]validate.StageResult, error) {
	if c.a72Stages != nil {
		return c.a72Stages, nil
	}
	st, err := validate.Pipeline(c.plat.A72, sim.PublicA72(), validate.PipelineOptions{
		BudgetRound1: c.opts.BudgetRound1,
		BudgetRound2: c.opts.BudgetRound2,
		Seed:         c.opts.Seed + 100,
		UbenchScale:  c.opts.UbenchScale,
		Cache:        c.runner.Cache(),
		Traces:       c.memo,
		Parallelism:  c.runner.Parallelism(),
		Context:      c.opts.Context,
		Log:          c.opts.Log,
	})
	if err != nil {
		return nil, err
	}
	c.a72Stages = st
	return st, nil
}

// Spec lazily generates and measures the Table II workloads on a board.
func (c *Context) Spec(board *hw.Board) ([]perturb.Workload, error) {
	cached := &c.specA53
	if board == c.plat.A72 {
		cached = &c.specA72
	}
	if *cached != nil {
		return *cached, nil
	}
	profiles := workload.Profiles()
	trs := make([]*trace.Trace, len(profiles))
	err := c.runner.forEach(len(profiles), func(i int) error {
		tr, err := c.workloadTrace(profiles[i])
		if err != nil {
			return err
		}
		trs[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	counters, err := c.runner.MeasureAll(board, trs)
	if err != nil {
		return nil, err
	}
	out := make([]perturb.Workload, len(profiles))
	for i, p := range profiles {
		out[i] = perturb.Workload{Name: p.Name, Trace: trs[i], Counters: counters[i]}
	}
	*cached = out
	return out, nil
}

// workloadTrace synthesizes one Table II workload through the job's
// trace memo: Table II and both boards' Spec share one trace each.
func (c *Context) workloadTrace(p workload.Profile) (*trace.Trace, error) {
	key := fmt.Sprintf("workload\x00%s\x00events=%d\x00seed=%d", p.Name, c.opts.WorkloadEvents, c.opts.Seed)
	return c.memo.Get(key, func() (*trace.Trace, error) {
		return workload.Generate(p, workload.Options{Events: c.opts.WorkloadEvents, Seed: c.opts.Seed})
	})
}

// Table1 regenerates Table I: the micro-benchmark suite and its dynamic
// instruction counts (paper counts plus this build's scaled counts).
func (c *Context) Table1() (Experiment, error) {
	t := &Table{
		Title:   "Table I: micro-benchmarks and dynamic instruction counts",
		Headers: []string{"category", "bench", "paper insns", "scaled insns", "stresses"},
	}
	opts := ubench.Options{Scale: c.opts.UbenchScale}
	type row struct {
		cat   ubench.Category
		bench ubench.Bench
		insns int
	}
	var rows []row
	for _, cat := range ubench.Categories {
		for _, b := range ubench.ByCategory(cat) {
			rows = append(rows, row{cat: cat, bench: b})
		}
	}
	// Trace generation (emulation) dominates this table; fan it out and
	// assemble rows in suite order.
	err := c.runner.forEach(len(rows), func(i int) error {
		tr, err := rows[i].bench.TraceWith(opts, c.memo)
		if err != nil {
			return err
		}
		rows[i].insns = tr.Len()
		return nil
	})
	if err != nil {
		return Experiment{}, err
	}
	for _, r := range rows {
		t.AddRow(string(r.cat), r.bench.Name, fmt.Sprintf("%d", r.bench.PaperInstructions),
			fmt.Sprintf("%d", r.insns), r.bench.Description)
	}
	return Experiment{
		ID:       "table1",
		Title:    "Micro-benchmark suite",
		Paper:    "40 micro-benchmarks in 5 categories, 4 K – 66 M dynamic instructions",
		Measured: fmt.Sprintf("%d benchmarks in %d categories, scaled traces per column 4", len(ubench.Suite()), len(ubench.Categories)),
		Body:     t.Render(),
	}, nil
}

// Table2 regenerates Table II: the SPEC CPU2017 workloads.
func (c *Context) Table2() (Experiment, error) {
	t := &Table{
		Title:   "Table II: SPEC CPU2017 region workloads",
		Headers: []string{"benchmark", "file", "line", "paper insns", "synthesized insns"},
	}
	profiles := workload.Profiles()
	lens := make([]int, len(profiles))
	err := c.runner.forEach(len(profiles), func(i int) error {
		tr, err := c.workloadTrace(profiles[i])
		if err != nil {
			return err
		}
		lens[i] = tr.Len()
		return nil
	})
	if err != nil {
		return Experiment{}, err
	}
	for i, p := range profiles {
		t.AddRow(p.Name, p.SourceFile, fmt.Sprintf("%d", p.Line),
			fmt.Sprintf("%d", p.PaperInstructions), fmt.Sprintf("%d", lens[i]))
	}
	return Experiment{
		ID:       "table2",
		Title:    "SPEC CPU2017 region workloads",
		Paper:    "11 C/C++ benchmarks, 443 M – 14.9 G instructions (train inputs)",
		Measured: "11 synthetic profiles with matching roles, scaled traces",
		Body:     t.Render(),
	}, nil
}

// Fig2 regenerates the racing-dynamics view: surviving configurations per
// benchmark instance during an irace run on the A53.
func (c *Context) Fig2() (Experiment, error) {
	ms, err := c.Measurements(c.plat.A53)
	if err != nil {
		return Experiment{}, err
	}
	res, err := validate.Tune(sim.PublicA53(), ms, validate.TuneOptions{
		Budget: c.opts.BudgetRound1, Seed: c.opts.Seed,
		Cache: c.runner.Cache(), Parallelism: c.runner.Parallelism(),
		Context: c.opts.Context,
		Log:     c.opts.Log,
	})
	if err != nil {
		return Experiment{}, err
	}
	t := &Table{
		Title:   "Figure 2: iterated-racing elimination dynamics",
		Headers: []string{"iteration", "instance", "alive", ""},
	}
	maxAlive := 0
	for _, ev := range res.Irace.RaceTrace {
		if ev.Alive > maxAlive {
			maxAlive = ev.Alive
		}
	}
	for _, ev := range res.Irace.RaceTrace {
		t.AddRow(fmt.Sprintf("%d", ev.Iteration), fmt.Sprintf("%d", ev.Instance),
			fmt.Sprintf("%d", ev.Alive), Bar(float64(ev.Alive), float64(maxAlive), 40))
	}
	return Experiment{
		ID:       "fig2",
		Title:    "irace sampling / racing / elimination",
		Paper:    "candidates are eliminated as instances accumulate; survivors seed the next iteration",
		Measured: fmt.Sprintf("%d race events, final best cost %.3f", len(res.Irace.RaceTrace), res.Irace.BestCost),
		Body:     t.Render(),
	}, nil
}

// errTable renders per-benchmark error pairs.
func errTable(title string, names []string, a, b map[string]float64, labelA, labelB string) *Table {
	t := &Table{Title: title}
	if b == nil {
		t.Headers = []string{"bench", labelA, ""}
	} else {
		t.Headers = []string{"bench", labelA, labelB, ""}
	}
	maxV := 0.0
	for _, n := range names {
		if a[n] > maxV {
			maxV = a[n]
		}
		if b != nil && b[n] > maxV {
			maxV = b[n]
		}
	}
	for _, n := range names {
		if b == nil {
			t.AddRow(n, Pct(a[n]), Bar(a[n], maxV, 40))
		} else {
			t.AddRow(n, Pct(a[n]), Pct(b[n]), Bar(b[n], maxV, 40))
		}
	}
	return t
}

// Fig4 regenerates the before/after tuning micro-benchmark errors (A53).
func (c *Context) Fig4() (Experiment, error) {
	stages, err := c.StagesA53()
	if err != nil {
		return Experiment{}, err
	}
	untuned := map[string]float64{}
	tuned := map[string]float64{}
	var names []string
	for _, e := range stages[0].Errors {
		untuned[e.Name] = e.Error
		names = append(names, e.Name)
	}
	for _, e := range stages[len(stages)-1].Errors {
		tuned[e.Name] = e.Error
	}
	sort.Strings(names)
	t := errTable("Figure 4: A53 micro-benchmark CPI error, untuned vs tuned",
		names, untuned, tuned, "untuned", "tuned")
	worstU, _, err := validate.MaxError(stages[0].Errors)
	if err != nil {
		return Experiment{}, err
	}
	return Experiment{
		ID:    "fig4",
		Title: "Micro-benchmark CPI error before and after tuning (Cortex-A53 model)",
		Paper: "untuned ~50% average with a 5.6x outlier; tuned ~10% average",
		Measured: fmt.Sprintf("untuned %s average (worst %s %s); tuned %s average",
			Pct(stages[0].MeanError), worstU.Name, Pct(worstU.Error),
			Pct(stages[len(stages)-1].MeanError)),
		Body: t.Render(),
	}, nil
}

// SpecErrors evaluates a config on the Table II workloads: one simulation
// unit per workload, scheduled on the runner and deduplicated through the
// shared cache. It returns per-workload relative CPI errors, their mean
// and the worst case.
func (c *Context) SpecErrors(cfg sim.Config, ws []perturb.Workload) (map[string]float64, float64, float64, error) {
	units := make([]Unit, len(ws))
	for i, w := range ws {
		units[i] = Unit{Config: cfg, Trace: w.Trace}
	}
	results, err := c.runner.RunAll(units)
	if err != nil {
		return nil, 0, 0, err
	}
	out := map[string]float64{}
	total, worst := 0.0, 0.0
	for i, w := range ws {
		e := results[i].CPI() - w.Counters.CPI
		if e < 0 {
			e = -e
		}
		e /= w.Counters.CPI
		out[w.Name] = e
		total += e
		if e > worst {
			worst = e
		}
	}
	return out, total / float64(len(ws)), worst, nil
}

func (c *Context) specFigure(id, title, paperClaim string, board *hw.Board,
	stagesFn func() ([]validate.StageResult, error)) (Experiment, error) {
	stages, err := stagesFn()
	if err != nil {
		return Experiment{}, err
	}
	tuned := stages[len(stages)-1].Config
	ws, err := c.Spec(board)
	if err != nil {
		return Experiment{}, err
	}
	errs, mean, worst, err := c.SpecErrors(tuned, ws)
	if err != nil {
		return Experiment{}, err
	}
	// Context row: how the untuned public model fares on the same held-out
	// workloads (not in the paper's figure, but frames the improvement).
	_, untunedMean, _, err := c.SpecErrors(stages[0].Config, ws)
	if err != nil {
		return Experiment{}, err
	}
	var names []string
	for _, w := range ws {
		names = append(names, w.Name)
	}
	t := errTable(title, names, errs, nil, "CPI error", "")
	return Experiment{
		ID:    id,
		Title: title,
		Paper: paperClaim,
		Measured: fmt.Sprintf("average %s, worst %s (untuned model on the same workloads: %s)",
			Pct(mean), Pct(worst), Pct(untunedMean)),
		Body: t.Render(),
	}, nil
}

// Fig5 regenerates the tuned A53 SPEC errors.
func (c *Context) Fig5() (Experiment, error) {
	return c.specFigure("fig5",
		"Figure 5: SPEC CPI error, tuned in-order (A53) model",
		"7% average, at most 16%", c.plat.A53, c.StagesA53)
}

// Fig6 regenerates the tuned A72 SPEC errors.
func (c *Context) Fig6() (Experiment, error) {
	return c.specFigure("fig6",
		"Figure 6: SPEC CPI error, tuned out-of-order (A72) model",
		"15% average, outliers ~30% (prefetcher-dominated)", c.plat.A72, c.StagesA72)
}

func (c *Context) perturbFigure(id, title, paperClaim string, board *hw.Board,
	stagesFn func() ([]validate.StageResult, error)) (Experiment, error) {
	stages, err := stagesFn()
	if err != nil {
		return Experiment{}, err
	}
	tuned := stages[len(stages)-1].Config
	ws, err := c.Spec(board)
	if err != nil {
		return Experiment{}, err
	}
	_, tunedMean, _, err := c.SpecErrors(tuned, ws)
	if err != nil {
		return Experiment{}, err
	}
	res, err := perturb.WorstNearOptimum(tuned, ws, perturb.Options{
		Restarts: c.opts.PerturbRestarts, Seed: c.opts.Seed,
		Cache: c.runner.Cache(), Parallelism: c.runner.Parallelism(),
		Log: c.opts.Log,
	})
	if err != nil {
		return Experiment{}, err
	}
	errs := map[string]float64{}
	var names []string
	for i, w := range ws {
		errs[w.Name] = res.Errors[i]
		names = append(names, w.Name)
	}
	t := errTable(title, names, errs, nil, "CPI error", "")
	return Experiment{
		ID:    id,
		Title: title,
		Paper: paperClaim,
		Measured: fmt.Sprintf("tuned average %s -> worst one-step %s (%d parameters deviate)",
			Pct(tunedMean), Pct(res.MeanError), res.Deviations),
		Body: t.Render(),
	}, nil
}

// Fig7 regenerates the near-optimum worst case for the A53 model.
func (c *Context) Fig7() (Experiment, error) {
	return c.perturbFigure("fig7",
		"Figure 7: close-to-optimum but inaccurate A53 model",
		"average error grows 7% -> 34%, individual up to 67%", c.plat.A53, c.StagesA53)
}

// Fig8 regenerates the near-optimum worst case for the A72 model.
func (c *Context) Fig8() (Experiment, error) {
	return c.perturbFigure("fig8",
		"Figure 8: close-to-optimum but inaccurate A72 model",
		"average error grows 15% -> ~45%", c.plat.A72, c.StagesA72)
}

// Staged regenerates the Sec. IV-B narrative: error per validation stage.
func (c *Context) Staged() (Experiment, error) {
	a53, err := c.StagesA53()
	if err != nil {
		return Experiment{}, err
	}
	a72, err := c.StagesA72()
	if err != nil {
		return Experiment{}, err
	}
	t := &Table{
		Title:   "Staged validation: mean micro-benchmark CPI error per stage",
		Headers: []string{"stage", "A53", "A72"},
	}
	for i := range a53 {
		t.AddRow(a53[i].Name, Pct(a53[i].MeanError), Pct(a72[i].MeanError))
	}
	return Experiment{
		ID:    "staged",
		Title: "Validation stages (Sec. IV-B)",
		Paper: "untuned ~50% -> first tuning ~33% -> fixes + retuning ~10% (A53)",
		Measured: fmt.Sprintf("A53: %s -> %s -> %s",
			Pct(a53[0].MeanError), Pct(a53[1].MeanError), Pct(a53[2].MeanError)),
		Body: t.Render(),
	}, nil
}

// ByID returns the named experiment function, for driver binaries that run
// a single experiment.
func (c *Context) ByID(id string) (func() (Experiment, error), bool) {
	fns := map[string]func() (Experiment, error){
		"table1": c.Table1, "table2": c.Table2, "fig2": c.Fig2,
		"fig4": c.Fig4, "fig5": c.Fig5, "fig6": c.Fig6,
		"fig7": c.Fig7, "fig8": c.Fig8, "staged": c.Staged,
	}
	fn, ok := fns[id]
	return fn, ok
}

// IDs lists every experiment in paper order.
func IDs() []string {
	return []string{"table1", "table2", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "staged"}
}

// All runs every experiment in paper order. Experiments share the tuned
// models, workload measurements and the simulation cache, so later
// experiments are mostly cache hits; each Experiment records its own
// wall-clock time (which is reported, never rendered, keeping output
// byte-identical across parallelism settings).
func (c *Context) All() ([]Experiment, error) {
	var out []Experiment
	for _, id := range IDs() {
		fn, _ := c.ByID(id)
		c.opts.Log("expt: running %s", id)
		start := time.Now()
		e, err := fn()
		if err != nil {
			return nil, fmt.Errorf("expt %s: %w", id, err)
		}
		e.Elapsed = time.Since(start)
		c.opts.Log("expt: %-6s done in %v", id, e.Elapsed.Round(time.Millisecond))
		out = append(out, e)
	}
	return out, nil
}
