// Command perfbench is racesim's benchmark: it runs one workload from a
// seed, checks every output against a reference, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separate traced run) as the last line of standard output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cold-paper --seed 1 --seconds 15 --trace 0
//
// --workload all runs every workload in turn. --spec prints the
// BENCHMARK.json this benchmark implements. README.md in this directory
// documents the workloads, metrics and layers.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(r *run) error
}

// metricDef names one metric. Bound is set for the end-to-end metrics
// BENCHMARK.json gates on.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloads = []workloadDef{
	{"cold-paper", "paper-set selection from an empty simcache in one process: replay and perturb dominate, the cache only inserts", coldPaper},
	{"warm-paper", "same selection over a filled snapshot opened and saved as a re-run does: synthesis, board measurement, keys and snapshot dominate", warmPaper},
	{"sweep-2w", "same selection cold through cluster.Run on two one-slot workers sharing a cache-server tier: dispatch, sharing and the slowest unit", sweep2w},
	{"serve-open", "open loop of small run jobs over HTTP at fixed rates on a warm server: dispatch, queueing and the HTTP/SSE hop", serveOpen},
}

// gated are the end-to-end metrics every workload reports and
// BENCHMARK.json bounds. They are CPU and memory figures: on a VM whose
// vCPUs are stolen in bursts lasting minutes, wall times of the same work
// drift by more than any usable bound. cpu_s is the process's CPU time
// (user plus system, every thread) per unit of work: per pass of the
// selection, or per job over serve-open's two fixed-rate phases. setup_s
// is the CPU time of the one-time set-up. Wall times and stolen time are
// printed beside them.
var gated = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// reported are all end-to-end metrics, printed by name on every run; a
// metric a workload has no value for prints as n/a.
var reported = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "wall_s", Unit: "s"},
	{Name: "cpu_s", Unit: "s"},
	{Name: "sim_mips", Unit: "Minst/s"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "err_ubench_a53_pct", Unit: "%"},
	{Name: "err_spec_a53_pct", Unit: "%"},
	{Name: "err_spec_a72_pct", Unit: "%"},
	{Name: "p50_ms.low", Unit: "ms"},
	{Name: "p99_ms.low", Unit: "ms"},
	{Name: "p50_ms.high", Unit: "ms"},
	{Name: "p99_ms.high", Unit: "ms"},
	{Name: "max_rate_jobs_s", Unit: "1/s"},
	{Name: "failed_frac", Unit: "fraction"},
}

// perLayer are the traced run's metrics, reported on every workload (0
// where the workload does not exercise the layer).
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, id := range []string{"table1", "table2", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "staged"} {
		add("s", "lower", "expt."+id+".s")
	}
	add("count", "higher", "synth.traces", "synth.insts")
	add("s", "lower", "asm.s", "emu.s")
	add("ns", "lower", "synth.ns_per_inst")
	add("s", "lower", "decode.s")
	add("ns", "lower", "decode.ns_per_inst")
	add("s", "lower", "behav.s")
	add("count", "higher", "replay.sims.inorder", "replay.sims.ooo", "replay.insts")
	add("ns", "lower", "replay.inorder.ns_per_inst", "replay.ooo.ns_per_inst", "replay.batch.ns_per_inst")
	add("ratio", "higher", "replay.batch_vs_seq")
	add("us", "lower", "hier.new_us")
	add("count", "higher", "hier.accesses")
	add("ns", "lower", "hier.ns_per_access")
	for _, k := range prefetchKinds {
		add("ns", "lower", "prefetch."+k+".ns_per_observe")
		add("count", "lower", "prefetch."+k+".allocs_per_observe")
	}
	add("ns", "lower", "branch.ns_per_access")
	add("count", "higher", "measure.traces")
	add("s", "lower", "measure.s", "lmbench.s")
	add("count", "higher", "irace.evals")
	add("s", "lower", "irace.s")
	add("ratio", "higher", "irace.evals_per_budget")
	add("count", "higher", "perturb.configs", "perturb.sims")
	add("s", "lower", "perturb.s")
	add("ratio", "higher", "perturb.hit_rate")
	add("count", "higher", "simcache.hits")
	add("count", "lower", "simcache.misses")
	add("count", "higher", "simcache.shared", "simcache.remote_hits")
	add("ratio", "higher", "simcache.hit_rate")
	add("us", "lower", "simcache.key_us", "simcache.hit_us")
	add("s", "lower", "snapshot.open_s", "snapshot.save_s")
	add("bytes", "lower", "snapshot.bytes")
	add("count", "higher", "snapshot.entries")
	add("count", "higher", "tracememo.hits")
	add("count", "lower", "tracememo.misses")
	add("ratio", "higher", "tracememo.hit_rate")
	add("us", "lower", "engine.exec_us")
	add("ms", "lower", "engine.queue_wait_ms")
	add("us", "lower", "http.hop_us")
	add("count", "lower", "http.rejected")
	add("count", "higher", "cluster.units")
	add("count", "lower", "cluster.reassigned")
	add("ratio", "higher", "cluster.hit_rate")
	add("count", "higher", "cluster.remote_hits")
	add("s", "lower", "cluster.unit_p50_s", "cluster.unit_max_s")
	add("fraction", "lower", "cluster.idle_frac")
	add("%", "lower", "trace_overhead_pct")
	return out
}()

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	par      int    // nproc: parallelism of single-process runs
	dir      string // per-run scratch directory inside the checkout
	state    string // exact-repeat counts of runs of identical sources

	e2e       map[string]float64
	ownWall   float64 // median wall time of the passes on --seed itself (paper workloads)
	layer     map[string]float64
	attempted int
	failed    int
	tracer    *Tracer
	// notes are extra human-readable result lines (sample counts,
	// generator lateness) printed after the end-to-end metrics.
	notes []string
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setup records the set-up cost. setup_s is its CPU time (see gated); its
// wall time is noted beside it.
func (r *run) setup(s sample) {
	r.e2e["setup_s"] = s.cpu.Seconds()
	r.note("%-22s %s s", "setup_wall_s", fmtValue(s.wall.Seconds()))
}

// fail records one failed operation. Failures are never retried away.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// check counts one checked operation and records a failure when bad.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// sourceID identifies the code a run measures: a digest of every Go
// source and module file under the checkout root (this benchmark's own
// included, so its sizes count too). Exact-repeat counts are kept per
// sourceID, so only runs of identical sources are compared.
func sourceID(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// Hidden directories hold build output (.bench_build) or VCS data.
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// repeatCounts compares counts that a deterministic program must repeat
// exactly with those recorded by earlier runs of the same workload and
// seed on identical sources (see sourceID), and records them when they
// are new. A difference means nondeterminism and fails the run.
func (r *run) repeatCounts(kind string, counts map[string]int64) {
	if err := os.MkdirAll(r.state, 0o755); err != nil {
		r.fail("repeat counts: %v", err)
		return
	}
	path := filepath.Join(r.state, fmt.Sprintf("%s-%d-%s.json", r.workload, r.seed, kind))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]int64
		if err := json.Unmarshal(data, &prev); err != nil {
			r.fail("repeat counts: %s: %v", path, err)
			return
		}
		for k, v := range counts {
			if pv, ok := prev[k]; ok {
				r.check(pv == v, "exact repeat: %s %s = %d, an earlier run recorded %d", kind, k, v, pv)
			}
		}
		return
	}
	data, _ := json.Marshal(counts)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		r.fail("repeat counts: %v", err)
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// digestCount turns an artifact digest into a count for repeatCounts.
func digestCount(s string) int64 {
	sum := sha256.Sum256([]byte(s))
	var v int64
	for _, b := range sum[:7] {
		v = v<<8 | int64(b)
	}
	return v
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (or all)")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 15, "measurement time per run")
		traceArg = flag.Int("trace", 0, "1: separate traced run reporting per-layer metrics")
		spec     = flag.Bool("spec", false, "print the BENCHMARK.json this benchmark implements and exit")
	)
	flag.Parse()
	if *spec {
		data, err := specJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	if *traceArg != 0 && *traceArg != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var todo []workloadDef
	for _, w := range workloads {
		if *workload == w.Name || *workload == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	ok := true
	for _, w := range todo {
		if !runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traceArg == 1) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs one workload and prints its metrics; the JSON result
// is the last line of standard output. It reports whether the run
// completed (correctness failures still complete the run).
func runWorkload(w workloadDef, seed int64, seconds time.Duration, traced bool) bool {
	base := ".bench_build"
	r := &run{
		workload: w.Name, seed: seed, seconds: seconds, traced: traced,
		par: runtime.GOMAXPROCS(0),
		dir: filepath.Join(base, "work", fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid())),
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	id, err := sourceID(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: source identity:", err)
		return false
	}
	r.state = filepath.Join(base, "state", id)
	for _, m := range reported {
		r.e2e[m.Name] = math.NaN()
	}
	if traced {
		r.tracer = NewTracer(fmt.Sprintf("%s-%d-%d", w.Name, seed, time.Now().UnixNano()))
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	defer os.RemoveAll(r.dir)
	r.logf("%s: seed %d, %v, trace %v, parallelism %d", w.Name, seed, seconds, traced, r.par)
	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		return false
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	if r.attempted > 0 {
		r.e2e["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	if r.attempted == 0 {
		r.attempted = 1
		r.fail("no operation was checked")
	}

	out := resultOut{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	fmt.Printf("# %s seed=%d trace=%v\n", w.Name, seed, traced)
	for _, m := range reported {
		fmt.Printf("%-22s %s %s\n", m.Name, fmtValue(r.e2e[m.Name]), m.Unit)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	if traced {
		results := filepath.Join(base, "results")
		if err := os.MkdirAll(results, 0o755); err == nil {
			path := filepath.Join(results, fmt.Sprintf("%s-%d-spans.jsonl", w.Name, seed))
			if err := r.tracer.WriteFile(path); err != nil {
				r.logf("write spans: %v", err)
			} else {
				r.logf("wrote %d spans to %s", len(r.tracer.Spans()), path)
			}
		}
		for _, m := range perLayer {
			v := r.layer[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Printf("%-36s %s %s\n", m.Name, fmtValue(v), m.Unit)
			out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		}
	} else {
		for _, m := range gated {
			v := r.e2e[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.fail("%s was not measured", m.Name)
				v = 0
			}
			out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		}
		out.Correct, out.Failed = r.failed == 0, r.failed
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return false
	}
	fmt.Println(string(line))
	return true
}

func fmtValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case math.IsInf(v, 1):
		return "inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// specJSON renders the BENCHMARK.json this benchmark implements.
func specJSON() ([]byte, error) {
	type spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	data, err := json.MarshalIndent(spec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   gated,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// runSeconds is the measurement time BENCHMARK.json asks for.
const runSeconds = 15
