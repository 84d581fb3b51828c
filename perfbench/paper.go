package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"racesim/internal/cluster"
	"racesim/internal/engine"
	"racesim/internal/expt"
	"racesim/internal/simcache"
)

// Paper-set sizes: the full selection at a reduced scale, chosen so one
// cold pass takes a few seconds on a 2-vCPU host.
const (
	paperScale   = 0.0005
	paperEvents  = 1000
	paperBudget1 = 40
	paperBudget2 = 40
	// Measured passes per run, fixed per workload so both sides of a
	// comparison do the same work and memory peaks over the same number
	// of passes. Each fills about 15 s on a 2-vCPU host. They alternate
	// between the two paperSeeds, so each count is even.
	coldPasses  = 4
	warmPasses  = 10
	sweepPasses = 2
)

// paperSeeds are the two experiment seeds a paper workload renders the
// selection with: --seed and one derived from it. Passes alternate
// between them, so the median pass is about their mean. A seed sets
// which configurations the tuner picks, and their modelled structure
// sizes set much of a pass's cost, so one seed alone would move the
// figures between seeds by more than run-to-run noise does.
func paperSeeds(seed int64) [2]int64 { return [2]int64{seed, seed + 1<<20} }

func paperJob(seed int64) engine.Job {
	return engine.Job{Kind: engine.KindExperiments, Experiments: &engine.ExperimentsJob{
		Run: "all", Scale: paperScale, Events: paperEvents,
		Budget1: paperBudget1, Budget2: paperBudget2, Seed: seed, Quiet: true,
	}}
}

func paperOptions(seed int64, par int, cache *simcache.Cache) expt.Options {
	return expt.Options{
		UbenchScale: paperScale, WorkloadEvents: paperEvents,
		BudgetRound1: paperBudget1, BudgetRound2: paperBudget2,
		Seed: seed, Parallelism: par, Cache: cache,
	}
}

// passCounts are the work counts of one pass that must repeat exactly.
type passCounts struct {
	Sims    int64 // simulations run (cache misses)
	Insts   int64 // simulated instructions of those simulations
	Lookups int64 // cache lookups answered without simulating (hits + in-flight shares)
}

func (c passCounts) asMap() map[string]int64 {
	return map[string]int64{"sims": c.Sims, "insts": c.Insts, "answered": c.Lookups}
}

// cacheInsts sums the instructions of every result the cache holds — on
// a cache that started empty, the instructions of the simulations run.
func cacheInsts(c *simcache.Cache) int64 {
	var n int64
	for _, k := range c.Keys() {
		if res, ok := c.Peek(k); ok {
			n += int64(res.Instructions)
		}
	}
	return n
}

// coldRender renders the selection for seed once in this process from an
// empty cache — the single-process reference every paper workload checks
// against.
func coldRender(r *run, seed int64) (string, passCounts, sample, error) {
	cache := simcache.New()
	var res *engine.Result
	smp, err := timed(func() (err error) {
		res, err = engine.Execute(paperJob(seed), engine.Options{Parallelism: r.par, Cache: cache, Capture: true})
		return err
	})
	if err != nil {
		return "", passCounts{}, smp, fmt.Errorf("cold render: %w", err)
	}
	st := cache.Stats()
	return res.Artifact, passCounts{Sims: int64(st.Misses), Insts: cacheInsts(cache), Lookups: int64(st.Hits + st.Shared)}, smp, nil
}

// paperErrors notes the reference artifact's digest and reads the three
// accuracy figures from it: the tuned-A53 Table I error (fig4) and the
// held-out SPEC errors of the tuned models (fig5, fig6), all against the
// in-repo reference board.
var (
	reFig4 = regexp.MustCompile(`(?m)^Measured: untuned .*; tuned ([0-9.]+)% average$`)
	reSpec = regexp.MustCompile(`(?m)^## (fig5|fig6) .*\n\nPaper: .*\nMeasured: average ([0-9.]+)%`)
)

func paperErrors(r *run, artifact string) {
	r.note("%-22s %s", "artifact_digest", digest(artifact))
	if m := reFig4.FindStringSubmatch(artifact); m != nil {
		r.e2e["err_ubench_a53_pct"], _ = strconv.ParseFloat(m[1], 64)
	}
	for _, m := range reSpec.FindAllStringSubmatch(artifact, -1) {
		v, _ := strconv.ParseFloat(m[2], 64)
		if m[1] == "fig5" {
			r.e2e["err_spec_a53_pct"] = v
		} else {
			r.e2e["err_spec_a72_pct"] = v
		}
	}
	for _, k := range []string{"err_ubench_a53_pct", "err_spec_a53_pct", "err_spec_a72_pct"} {
		r.check(!math.IsNaN(r.e2e[k]), "%s missing from the rendered artifact", k)
	}
}

// sample is the cost of one pass: wall time, the process's CPU time, and
// the time the hypervisor stole from the machine's vCPUs meanwhile. The
// guest charges stolen time to whatever task was on the vCPU, so cpu
// includes some of steal; steal is reported beside it, not subtracted,
// since it also accrues while no task of this process was running.
type sample struct{ wall, cpu, steal time.Duration }

// timed runs f and returns its sample.
func timed(f func() error) (sample, error) {
	c0, s0, t0 := cpuTime(), stolenTime(), time.Now()
	err := f()
	return sample{wall: time.Since(t0), cpu: cpuTime() - c0, steal: stolenTime() - s0}, err
}

func (a sample) plus(b sample) sample {
	return sample{wall: a.wall + b.wall, cpu: a.cpu + b.cpu, steal: a.steal + b.steal}
}

// medianSample is the sample of median wall and median CPU time.
func medianSample(ss []sample) sample {
	walls, cpus := make([]float64, len(ss)), make([]float64, len(ss))
	for i, s := range ss {
		walls[i], cpus[i] = s.wall.Seconds(), s.cpu.Seconds()
	}
	return sample{wall: seconds(median(walls)), cpu: seconds(median(cpus))}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// measure runs pass n times, collecting the heap before each pass off
// the clock. It sets wall_s and cpu_s to the medians over the passes,
// and ownWall to the median wall time of the even passes, those on the
// run's own seed.
func measure(r *run, n int, pass func(i int) (sample, error)) error {
	var walls, cpus, steals []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		s, err := pass(i)
		if err != nil {
			return err
		}
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		steals = append(steals, s.steal.Seconds())
	}
	r.note("%-22s %s s", "steal_s", fmtValue(median(steals)))
	r.e2e["wall_s"] = median(walls)
	r.e2e["cpu_s"] = median(cpus)
	var own []float64
	for i := 0; i < n; i += 2 {
		own = append(own, walls[i])
	}
	r.ownWall = median(own)
	r.logf("passes: wall %v s, cpu %v s", walls, cpus)
	return nil
}

// seedKind names per-seed exact-repeat counts.
func seedKind(kind string, seed int64) string { return fmt.Sprintf("%s.seed%d", kind, seed) }

func coldPaper(r *run) error {
	seeds := paperSeeds(r.seed)
	var refs [2]string
	var refCounts [2]passCounts
	var setup sample
	for k, seed := range seeds {
		ref, c, smp, err := coldRender(r, seed)
		if err != nil {
			return err
		}
		refs[k], refCounts[k], setup = ref, c, setup.plus(smp)
		r.repeatCounts(seedKind("cold", seed), c.asMap())
		r.repeatCounts(seedKind("artifact", seed), map[string]int64{"digest": digestCount(ref)})
		r.logf("cold render, seed %d: %d sims, %d insts", seed, c.Sims, c.Insts)
	}
	r.setup(setup)
	paperErrors(r, refs[0])

	var mips []float64
	err := measure(r, coldPasses, func(i int) (sample, error) {
		k := i % 2
		art, c, smp, err := coldRender(r, seeds[k])
		if err != nil {
			return smp, err
		}
		r.check(art == refs[k], "cold pass %d: artifact %s differs from the reference %s", i, digest(art), digest(refs[k]))
		r.check(c == refCounts[k], "cold pass %d: counts %+v differ from the reference render's %+v", i, c, refCounts[k])
		mips = append(mips, float64(c.Insts)/smp.wall.Seconds()/1e6)
		return smp, nil
	})
	if err != nil {
		return err
	}
	r.e2e["sim_mips"] = median(mips)
	if r.traced {
		return tracePaper(r, refs[0], false, "")
	}
	return nil
}

func warmPaper(r *run) error {
	seeds := paperSeeds(r.seed)
	var snaps, refs [2]string
	var setup sample
	for k, seed := range seeds {
		snaps[k] = filepath.Join(r.dir, fmt.Sprintf("warm-%d.snap", k))
		var fill *engine.Result
		smp, err := timed(func() (err error) {
			fill, err = engine.Execute(paperJob(seed), engine.Options{Parallelism: r.par, CachePath: snaps[k], Capture: true})
			return err
		})
		if err != nil {
			return fmt.Errorf("fill snapshot: %w", err)
		}
		refs[k], setup = fill.Artifact, setup.plus(smp)
		r.repeatCounts(seedKind("fill", seed), map[string]int64{"sims": int64(fill.CacheStats.Misses), "entries": int64(fill.CacheStats.Entries)})
		r.repeatCounts(seedKind("artifact", seed), map[string]int64{"digest": digestCount(refs[k])})
	}
	r.setup(setup)
	paperErrors(r, refs[0])

	var first [2]map[string]int64
	err := measure(r, warmPasses, func(i int) (sample, error) {
		k := i % 2
		var res *engine.Result
		smp, err := timed(func() (err error) {
			res, err = engine.Execute(paperJob(seeds[k]), engine.Options{Parallelism: r.par, CachePath: snaps[k], Capture: true})
			return err
		})
		if err != nil {
			return smp, err
		}
		st := res.CacheStats
		counts := map[string]int64{"sims": int64(st.Misses), "answered": int64(st.Hits + st.Shared), "entries": int64(st.Entries)}
		r.check(res.Artifact == refs[k], "warm pass %d: artifact %s differs from the reference %s", i, digest(res.Artifact), digest(refs[k]))
		r.check(st.Misses == 0, "warm pass %d: %d simulations on a filled snapshot", i, st.Misses)
		if first[k] == nil {
			first[k] = counts
			r.repeatCounts(seedKind("warm", seeds[k]), counts)
		} else {
			r.check(fmt.Sprint(counts) == fmt.Sprint(first[k]), "warm pass %d: counts %v differ from the first pass's %v", i, counts, first[k])
		}
		return smp, nil
	})
	if err != nil {
		return err
	}
	if r.traced {
		return tracePaper(r, refs[0], true, snaps[0])
	}
	return nil
}

// tier is a set of in-process serve processes bound to loopback ports:
// a cache-server node and the workers resolving misses against it.
type tier struct {
	servers []*engine.Server
	https   []*http.Server
	cache   string   // cache-server base URL
	workers []string // worker base URLs
}

func listen(s *engine.Server) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// startTier starts a cache server and n one-slot, parallelism-1 workers
// configured with it as their upstream — `racesim serve -cache-server`
// plus `racesim serve -cache-upstream`, in process.
func startTier(n int) (*tier, error) {
	t := &tier{}
	add := func(opts engine.ServerOptions) (string, error) {
		s, err := engine.NewServer(opts)
		if err != nil {
			return "", err
		}
		hs, url, err := listen(s)
		if err != nil {
			return "", err
		}
		t.servers = append(t.servers, s)
		t.https = append(t.https, hs)
		return url, nil
	}
	var err error
	if t.cache, err = add(engine.ServerOptions{CacheServer: true}); err != nil {
		t.stop()
		return nil, err
	}
	for i := 0; i < n; i++ {
		url, err := add(engine.ServerOptions{Workers: 1, Parallelism: 1, CacheUpstream: t.cache})
		if err != nil {
			t.stop()
			return nil, err
		}
		t.workers = append(t.workers, url)
	}
	return t, nil
}

// stop drains every server and closes its listener, waiting for both.
func (t *tier) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(t.servers) - 1; i >= 0; i-- {
		_ = t.servers[i].Drain(ctx) // a drain error leaves nothing to persist: no CachePath
		_ = t.https[i].Shutdown(ctx)
	}
}

// busySeconds sums job run time over the tier's workers, read from their
// /metrics histograms.
func (t *tier) busySeconds() float64 {
	total := 0.0
	for _, s := range t.servers[1:] {
		total += scrapeSum(s, "racesim_job_run_seconds_sum")
	}
	return total
}

// scrapeSum adds up every sample of one metric in a server's Prometheus
// exposition.
func scrapeSum(s *engine.Server, name string) float64 {
	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		return math.NaN()
	}
	total := 0.0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, name) || (len(line) > len(name) && line[len(name)] != ' ' && line[len(name)] != '{') {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err == nil {
			total += v
		}
	}
	return total
}

type sweepOut struct {
	artifact string
	report   cluster.Report
	sample   sample // of the cluster.Run call
	startup  sample // of the tier start
	insts    int64
	busy     float64
}

// sweepPass runs the selection for seed cold through cluster.Run over a
// fresh two-worker tier and a federated snapshot that starts empty.
// With tr set, the tier start, cluster.Run and the drain each get a span
// under parent.
func sweepPass(r *run, i int, seed int64, tr *Tracer, parent int) (sweepOut, error) {
	var out sweepOut
	sp := tr.Begin(parent, "tier.start")
	var t *tier
	var err error
	if out.startup, err = timed(func() (err error) {
		t, err = startTier(2)
		return err
	}); err != nil {
		return out, err
	}
	tr.End(sp, nil)
	defer func() {
		sp := tr.Begin(parent, "tier.stop")
		t.stop()
		tr.End(sp, nil)
	}()
	fed := filepath.Join(r.dir, fmt.Sprintf("fed-%d.snap", i))
	sp = tr.Begin(parent, "cluster.Run")
	var art string
	var rep cluster.Report
	out.sample, err = timed(func() (err error) {
		art, rep, err = cluster.Run(context.Background(), cluster.Options{
			Workers: t.workers, CacheServer: t.cache, CachePath: fed,
			Scenario: "all", Scale: paperScale, Events: paperEvents,
			Budget1: paperBudget1, Budget2: paperBudget2, Seed: seed,
		})
		return err
	})
	tr.End(sp, map[string]any{"units": rep.Units, "reassigned": rep.Reassigned})
	if err != nil {
		return out, fmt.Errorf("sweep pass %d: %w", i, err)
	}
	out.artifact, out.report, out.busy = art, rep, t.busySeconds()
	// Instructions of the distinct results the workers computed.
	seen := map[string]bool{}
	for _, s := range t.servers[1:] {
		c := s.Cache()
		for _, k := range c.Keys() {
			if seen[k] {
				continue
			}
			seen[k] = true
			if res, ok := c.Peek(k); ok {
				out.insts += int64(res.Instructions)
			}
		}
	}
	os.Remove(fed)
	return out, nil
}

func sweep2w(r *run) error {
	seeds := paperSeeds(r.seed)
	var refs [2]string
	var refSetup sample
	for k, seed := range seeds {
		ref, _, smp, err := coldRender(r, seed)
		if err != nil {
			return err
		}
		refs[k], refSetup = ref, refSetup.plus(smp)
		r.repeatCounts(seedKind("artifact", seed), map[string]int64{"digest": digestCount(ref)})
	}
	paperErrors(r, refs[0])

	var mips []float64
	var startups []sample
	var outs []sweepOut
	err := measure(r, sweepPasses, func(i int) (sample, error) {
		k := i % 2
		o, err := sweepPass(r, i, seeds[k], nil, 0)
		if err != nil {
			return o.sample, err
		}
		r.check(o.artifact == refs[k], "sweep pass %d: artifact %s differs from the single-process reference %s", i, digest(o.artifact), digest(refs[k]))
		if len(outs) > 0 {
			r.check(o.report.Units == outs[0].report.Units, "sweep pass %d: %d units, the first pass ran %d", i, o.report.Units, outs[0].report.Units)
		} else {
			r.repeatCounts("sweep", map[string]int64{"units": int64(o.report.Units)})
		}
		mips = append(mips, float64(o.insts)/o.sample.wall.Seconds()/1e6)
		startups = append(startups, o.startup)
		outs = append(outs, o)
		return o.sample, nil
	})
	if err != nil {
		return err
	}
	r.setup(refSetup.plus(medianSample(startups)))
	r.e2e["sim_mips"] = median(mips)
	if r.traced {
		return traceSweep(r, refs[0], len(outs))
	}
	return nil
}

// clusterLayer fills the cluster.* per-layer metrics from one pass.
func clusterLayer(r *run, o sweepOut, workers int) {
	rep := o.report
	r.layer["cluster.units"] = float64(rep.Units)
	r.layer["cluster.reassigned"] = float64(rep.Reassigned)
	r.layer["cluster.hit_rate"] = rep.Cache.HitRate()
	r.layer["cluster.remote_hits"] = float64(rep.Cache.RemoteHits)
	ds := make([]float64, len(rep.UnitDurations))
	for i, d := range rep.UnitDurations {
		ds[i] = d.Seconds()
	}
	sort.Float64s(ds)
	r.layer["cluster.unit_p50_s"] = median(ds)
	if len(ds) > 0 {
		r.layer["cluster.unit_max_s"] = ds[len(ds)-1]
	}
	if capacity := o.sample.wall.Seconds() * float64(workers); capacity > 0 {
		r.layer["cluster.idle_frac"] = math.Max(0, 1-o.busy/capacity)
	}
	simcacheLayer(r, rep.Cache)
}

// simcacheLayer fills the simcache lookup metrics from the cache
// activity of the traced pass or phase.
func simcacheLayer(r *run, st simcache.Stats) {
	r.layer["simcache.hits"] = float64(st.Hits)
	r.layer["simcache.misses"] = float64(st.Misses)
	r.layer["simcache.shared"] = float64(st.Shared)
	r.layer["simcache.remote_hits"] = float64(st.RemoteHits)
	r.layer["simcache.hit_rate"] = st.HitRate()
}
