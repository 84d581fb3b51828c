package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"racesim/internal/engine"
	"racesim/internal/hw"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// serve-open sizes. The two fixed rates are fractions of the capacity
// measured for this job mix on a 2-vCPU host: a closed loop over two
// connections completed about 3,300 jobs/s (3,246 to 3,705 over three
// 4 s rounds). low is about 15% of that and high about 50%. The ladder
// after them searches for the highest rate that still meets the p99
// limit without a growing backlog.
const (
	serveScale  = 0.0005 // Table I trace scale of the jobs
	serveEvents = 2000   // Table II trace length of the jobs
	lowRate     = 500.0  // jobs/s
	highRate    = 1600.0 // jobs/s
	ladderLen   = time.Second
	// ladderResolution ends the bisection once the lowest rate missed is
	// within this share above the highest rate met.
	ladderResolution = 0.1
	p99LimitMS       = 50.0
	freshShare       = 0.05 // share of jobs carrying a fresh inline config
	serveSetups      = 9    // server set-ups per run; setup_s is their median
	execSamples      = 200  // in-process executions timed for engine.exec_us
	submitBudget     = 30 * time.Second
)

// serveShapes lists the job shapes: every Table I micro-benchmark and
// every Table II workload on both presets.
func serveShapes(seed int64) []engine.RunJob {
	var out []engine.RunJob
	for _, preset := range []string{"public-a53", "public-a72"} {
		for _, name := range ubench.Names() {
			out = append(out, engine.RunJob{Preset: preset, Ubench: name, Scale: serveScale})
		}
		for _, p := range workload.Profiles() {
			out = append(out, engine.RunJob{Preset: preset, Workload: p.Name, Events: serveEvents, Seed: seed})
		}
	}
	return out
}

// freshConfig derives the k-th fresh configuration from a preset: an
// integer-divide latency no other job uses, so the job misses the cache,
// replays and stores.
func freshConfig(preset string, k int) sim.Config {
	cfg := sim.PublicA53()
	if preset == "public-a72" {
		cfg = sim.PublicA72()
	}
	cfg.Name = fmt.Sprintf("%s-fresh-%d", preset, k)
	cfg.Lat.IntDiv += 1 + k
	return cfg
}

// serveClient submits jobs over raw HTTP — so a refusal (429, 503) is a
// failed job rather than a retried one — and follows each to completion
// over the server's event stream with engine.Client.
type serveClient struct {
	base string
	http *http.Client
	cl   *engine.Client
}

func newServeClient(base string, conns int) *serveClient {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	cl := engine.NewClient(base)
	cl.HTTP = hc
	return &serveClient{base: base, http: hc, cl: cl}
}

// errRefused marks a job the server refused at submission.
type errRefused struct{ status int }

func (e errRefused) Error() string { return fmt.Sprintf("refused with HTTP %d", e.status) }

func (c *serveClient) do(ctx context.Context, job engine.Job) (string, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", errRefused{resp.StatusCode}
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	st, err := c.cl.Watch(ctx, sub.ID, 20*time.Millisecond)
	if err != nil {
		return "", err
	}
	if st.Status != "done" || st.Result == nil {
		return "", fmt.Errorf("job %s ended %s: %s", sub.ID, st.Status, st.Error)
	}
	return st.Result.Artifact, nil
}

// serveRig is one in-process server with its client.
type serveRig struct {
	srv *engine.Server
	hs  *http.Server
	cl  *serveClient
}

func startServe(par int) (*serveRig, error) {
	srv, err := engine.NewServer(engine.ServerOptions{Parallelism: par})
	if err != nil {
		return nil, err
	}
	hs, url, err := listen(srv)
	if err != nil {
		return nil, err
	}
	return &serveRig{srv: srv, hs: hs, cl: newServeClient(url, par)}, nil
}

func (g *serveRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = g.srv.Drain(ctx) // no CachePath: nothing to persist
	_ = g.hs.Shutdown(ctx)
	g.cl.http.CloseIdleConnections()
}

// serveState carries the oracle and the job stream of a serve-open run.
type serveState struct {
	r      *run
	rig    *serveRig
	shapes []engine.RunJob
	refs   []string // in-process artifact per shape
	// refCache and refMemo back the in-process reference executions.
	refCache *simcache.Cache
	refMemo  *tracememo.Memo
	fresh    int // fresh configs handed out so far
	refused  atomic.Int64
	// pending fresh-config jobs whose artifacts are checked after the
	// measurement, off the clock.
	pending []pendingJob
}

type pendingJob struct {
	job      engine.Job
	artifact string
}

func (s *serveState) reference(job engine.Job) (string, error) {
	res, err := engine.Execute(job, engine.Options{Parallelism: s.r.par, Cache: s.refCache, TraceMemo: s.refMemo, Capture: true})
	if err != nil {
		return "", err
	}
	return res.Artifact, nil
}

// checkPending checks the fresh-config jobs served so far against an
// in-process execution of the same job.
func (s *serveState) checkPending() {
	for _, pj := range s.pending {
		want, err := s.reference(pj.job)
		s.r.check(err == nil && want == pj.artifact, "fresh-config job %s: artifact differs from in-process engine.Execute (%v)", pj.job.Run.Workload+pj.job.Run.Ubench, err)
	}
	s.pending = nil
}

// phaseJobs draws n jobs for one phase from the seeded stream: shape
// index, or -1 with a job carrying a fresh inline config.
func (s *serveState) phaseJobs(rng *rand.Rand, n int) ([]int, []engine.Job) {
	idx := make([]int, n)
	jobs := make([]engine.Job, n)
	for i := range jobs {
		sh := rng.Intn(len(s.shapes))
		rj := s.shapes[sh]
		if rng.Float64() < freshShare {
			cfg := freshConfig(rj.Preset, s.fresh)
			s.fresh++
			raw, _ := json.Marshal(cfg) // a sim.Config always marshals
			rj.Preset, rj.ConfigJSON = "", raw
			sh = -1
		}
		idx[i] = sh
		jobs[i] = engine.Job{Kind: engine.KindRun, Run: &rj, Timeout: submitBudget.String()}
	}
	return idx, jobs
}

// phase offers one open-loop phase at rate for d and checks every job.
func (s *serveState) phase(rng *rand.Rand, rate float64, d time.Duration, tr *Tracer, parent int) Phase {
	n := int(rate * d.Seconds())
	idx, jobs := s.phaseJobs(rng, n)
	arts := make([]string, n)
	p := RunOpenLoop(n, rate, s.r.par, func(i int) error {
		sp := tr.Begin(parent, "job")
		ctx, cancel := context.WithTimeout(context.Background(), submitBudget)
		defer cancel()
		art, err := s.rig.cl.do(ctx, jobs[i])
		tr.End(sp, nil)
		var refused errRefused
		if errors.As(err, &refused) {
			s.refused.Add(1)
		}
		arts[i] = art
		return err
	})
	for i := range jobs {
		s.r.attempted++
		switch {
		case math.IsInf(p.LatencyMS[i], 1):
			s.r.failed++ // RunOpenLoop saw the error
		case idx[i] < 0:
			s.pending = append(s.pending, pendingJob{jobs[i], arts[i]})
		case arts[i] != s.refs[idx[i]]:
			s.r.fail("serve job %d (%s): artifact differs from in-process engine.Execute", i, s.shapes[idx[i]].Ubench+s.shapes[idx[i]].Workload)
		}
	}
	if p.Failed > 0 {
		s.r.logf("%.0f jobs/s: %d of %d jobs failed or were refused", rate, p.Failed, n)
	}
	return p
}

// meets reports whether a phase met the p99 limit without a growing
// backlog. The backlog has grown too far when more jobs are outstanding
// at the last due time than arrive within the p99 limit: the last job
// then waits beyond the limit.
func meets(p Phase) bool {
	sum := Summarize(p.LatencyMS)
	maxBacklog := p.Rate * p99LimitMS / 1000
	return p.Failed == 0 && sum.TailQ > 0 && sum.Tail <= p99LimitMS && float64(p.Backlog) <= maxBacklog
}

// ladder searches for the highest rate that meets the limit, from met,
// the highest rate known to meet it, and missed, the lowest known to
// miss it (0 when none has). It doubles the rate until a step misses,
// then bisects between the two until missed is within ladderResolution
// of met or the budget is spent. ceiling reports that no step missed
// before the budget ran out, so the result is only a lower bound of the
// capacity.
func (s *serveState) ladder(rng *rand.Rand, met, missed float64, budget time.Duration) (best float64, ceiling bool) {
	deadline := time.Now().Add(budget)
	for time.Until(deadline) > ladderLen/2 {
		rate := 2 * met
		if missed > 0 {
			if missed <= met*(1+ladderResolution) {
				break
			}
			rate = math.Round((met + missed) / 2)
		}
		p := s.phase(rng, rate, ladderLen, nil, 0)
		sum := Summarize(p.LatencyMS)
		s.r.note("%-22s %.0f jobs/s, n=%d, p%.1f %s ms, backlog %d, failed %d", "phase.ladder", rate, sum.N, sum.TailQ, fmtValue(sum.Tail), p.Backlog, p.Failed)
		if meets(p) {
			met = rate
		} else {
			missed = rate
		}
	}
	return met, missed == 0
}

func serveOpen(r *run) error {
	s := &serveState{r: r, shapes: serveShapes(r.seed), refCache: simcache.New(), refMemo: tracememo.New(0, 0)}
	for _, sh := range s.shapes {
		sh := sh
		art, err := s.reference(engine.Job{Kind: engine.KindRun, Run: &sh})
		if err != nil {
			return fmt.Errorf("reference %s%s: %w", sh.Ubench, sh.Workload, err)
		}
		s.refs = append(s.refs, art)
	}

	// Set up the server several times (start, then warm its cache and
	// trace memo with every shape over HTTP) and keep the last one.
	var setups []sample
	for k := 0; k < serveSetups; k++ {
		if s.rig != nil {
			s.rig.stop()
		}
		runtime.GC()
		smp, err := timed(func() error {
			rig, err := startServe(r.par)
			if err != nil {
				return err
			}
			s.rig = rig
			for i, sh := range s.shapes {
				sh := sh
				art, err := rig.cl.do(context.Background(), engine.Job{Kind: engine.KindRun, Run: &sh})
				if err != nil {
					return fmt.Errorf("warm %s%s: %w", sh.Ubench, sh.Workload, err)
				}
				if k == serveSetups-1 {
					r.check(art == s.refs[i], "warm-up job %s%s on %s: artifact differs from in-process engine.Execute", sh.Ubench, sh.Workload, sh.Preset)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		setups = append(setups, smp)
	}
	defer func() { s.rig.stop() }()
	r.setup(medianSample(setups))
	var cpus []float64
	for _, smp := range setups {
		cpus = append(cpus, smp.cpu.Seconds())
	}
	r.logf("set-ups: cpu %v s", cpus)

	ctx := context.Background()
	before, err := s.rig.cl.cl.Health(ctx)
	if err != nil {
		return err
	}
	waitSum0 := scrapeSum(s.rig.srv, "racesim_job_wait_seconds_sum")
	waitN0 := scrapeSum(s.rig.srv, "racesim_job_wait_seconds_count")

	rng := rand.New(rand.NewSource(r.seed))
	share := r.seconds / 4
	var low, high Phase
	phases, _ := timed(func() error {
		low = s.phase(rng, lowRate, share, nil, 0)
		high = s.phase(rng, highRate, share, nil, 0)
		return nil
	})
	r.e2e["cpu_s"] = phases.cpu.Seconds() / float64(low.Attempted+high.Attempted)
	r.note("%-22s %s s", "steal_s", fmtValue(phases.steal.Seconds()))
	lowSum, highSum := Summarize(low.LatencyMS), Summarize(high.LatencyMS)
	r.e2e["p50_ms.low"], r.e2e["p99_ms.low"] = lowSum.Median, lowSum.Tail
	r.e2e["p50_ms.high"], r.e2e["p99_ms.high"] = highSum.Median, highSum.Tail
	r.e2e["wall_s"] = highSum.Median / 1000
	for _, ph := range []struct {
		name string
		p    Phase
		sum  Summary
	}{{"low", low, lowSum}, {"high", high, highSum}} {
		r.note("%-22s %.0f jobs/s, n=%d, tail percentile p%.1f, backlog %d", "phase."+ph.name, ph.p.Rate, ph.sum.N, ph.sum.TailQ, ph.p.Backlog)
		r.note("%-22s %s ms", "gen_lag_ms."+ph.name, fmtValue(median(ph.p.GenLagMS)))
	}

	// The ladder starts from the fixed phases; a missed low rate leaves
	// nothing met to climb from.
	maxRate, ceiling := 0.0, false
	switch {
	case meets(high):
		maxRate, ceiling = s.ladder(rng, highRate, 0, 2*share)
	case meets(low):
		maxRate, ceiling = s.ladder(rng, lowRate, highRate, 2*share)
	}
	r.e2e["max_rate_jobs_s"] = maxRate
	if ceiling {
		r.note("%-22s no ladder step missed before the time ran out; max_rate_jobs_s is a lower bound", "max_rate.ceiling")
	}

	after, err := s.rig.cl.cl.Health(ctx)
	if err != nil {
		return err
	}
	waitSum := scrapeSum(s.rig.srv, "racesim_job_wait_seconds_sum") - waitSum0
	waitN := scrapeSum(s.rig.srv, "racesim_job_wait_seconds_count") - waitN0

	s.checkPending()

	if !r.traced {
		return nil
	}
	hits := float64(after.Traces.Hits - before.Traces.Hits)
	misses := float64(after.Traces.Misses - before.Traces.Misses)
	r.layer["tracememo.hits"], r.layer["tracememo.misses"] = hits, misses
	if hits+misses > 0 {
		r.layer["tracememo.hit_rate"] = hits / (hits + misses)
	}
	cs, cb := after.Cache, before.Cache
	simcacheLayer(r, simcache.Stats{
		Hits: cs.Hits - cb.Hits, Misses: cs.Misses - cb.Misses,
		Shared: cs.Shared - cb.Shared, RemoteHits: cs.RemoteHits - cb.RemoteHits,
	})
	if waitN > 0 {
		r.layer["engine.queue_wait_ms"] = 1000 * waitSum / waitN
	}
	r.layer["http.rejected"] = float64(s.refused.Load())

	// In-process execution of the same jobs on a warm cache and memo.
	var execs []float64
	for i := 0; i < execSamples; i++ {
		sh := s.shapes[rng.Intn(len(s.shapes))]
		t0 := time.Now()
		if _, err := s.reference(engine.Job{Kind: engine.KindRun, Run: &sh}); err != nil {
			return err
		}
		execs = append(execs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.layer["engine.exec_us"] = median(execs)
	r.layer["http.hop_us"] = 1000*lowSum.Median - median(execs)

	// The traced phase: the high rate again, one span per job.
	tr := r.tracer
	root := tr.Begin(0, "phase.high")
	traced := s.phase(rng, highRate, share, tr, root)
	tr.End(root, map[string]any{"jobs": traced.Attempted, "failed": traced.Failed})
	r.layer["trace_overhead_pct"] = 100 * (Summarize(traced.LatencyMS).Median - highSum.Median) / highSum.Median
	s.checkPending()

	plat, err := hw.Firefly()
	if err != nil {
		return err
	}
	in := probeInput{
		benches:  ubench.Suite(),
		ubOpts:   ubench.Options{Scale: serveScale},
		profiles: workload.Profiles(),
		wlOpts:   workload.Options{Events: serveEvents, Seed: r.seed},
		plat:     plat,
		inorder:  []sim.Config{sim.PublicA53(), freshConfig("public-a53", 0), freshConfig("public-a53", 1)},
		ooo:      []sim.Config{sim.PublicA72(), freshConfig("public-a72", 0), freshConfig("public-a72", 1)},
		tuneBase: sim.PublicA53(), perturbBase: sim.PublicA53(),
		budget: 40, seed: r.seed,
	}
	if err := snapshotProbe(r, 0, s.rig.srv.Cache()); err != nil {
		return err
	}
	return runProbes(r, in)
}
