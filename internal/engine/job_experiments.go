package engine

import (
	"fmt"
	"os"
	"strings"
	"time"

	"racesim/internal/expt"
	"racesim/internal/scenario"
)

// defaultResumeCache is the checkpoint path Resume uses when no cache
// path was given; a resumable sweep needs a snapshot on disk by
// definition.
const defaultResumeCache = "simcache.json"

func (e *env) experimentsJob(j *ExperimentsJob) error {
	if j == nil {
		j = &ExperimentsJob{}
	}
	scale := j.Scale
	if scale == 0 {
		scale = 0.01
	}
	events := j.Events
	if events == 0 {
		events = 60_000
	}
	budget1 := j.Budget1
	if budget1 == 0 {
		budget1 = 2500
	}
	budget2 := j.Budget2
	if budget2 == 0 {
		budget2 = 3500
	}
	ckEvery := 10 * time.Second
	if j.CheckpointEvery != "" {
		d, err := time.ParseDuration(j.CheckpointEvery)
		if err != nil {
			return fmt.Errorf("checkpoint_every: %w", err)
		}
		ckEvery = d
	}
	logf := func(format string, args ...any) {
		if !j.Quiet {
			e.eprintf(format+"\n", args...)
		}
	}

	specs := scenario.Registry()
	if j.Manifest != "" {
		extra, err := scenario.LoadManifest(j.Manifest)
		if err != nil {
			return err
		}
		specs = scenario.Merge(specs, extra)
	}

	if j.SaveManifest != "" {
		if err := scenario.SaveManifest(j.SaveManifest, specs); err != nil {
			return err
		}
		e.eprintf("wrote %d scenarios to %s\n", len(specs), j.SaveManifest)
		return nil
	}
	if j.ListScenarios {
		return e.listScenarios(specs)
	}

	if j.Run != "" && j.Scenario != "" {
		return fmt.Errorf("cannot combine run and scenario; they are the same selector")
	}
	pattern := j.Scenario
	if pattern == "" {
		pattern = j.Run
	}
	if pattern == "" {
		pattern = "all"
	}
	selected, err := scenario.Select(specs, pattern)
	if err != nil {
		return err
	}
	units, err := scenario.Expand(selected)
	if err != nil {
		return err
	}
	total := len(units)
	if j.Units != "" {
		if j.Shard != "" {
			return fmt.Errorf("cannot combine units and shard; both partition the expansion")
		}
		units, err = scenario.FilterUnits(units, strings.Split(j.Units, ","))
		if err != nil {
			return err
		}
		logf("scenario: units %s: %d of %d units", j.Units, len(units), total)
	}
	si, sn, err := scenario.ParseShard(j.Shard)
	if err != nil {
		return err
	}
	units = scenario.Shard(units, si, sn)
	if sn > 1 {
		logf("scenario: shard %d/%d: %d of %d units", si, sn, len(units), total)
	}

	// The scenario engine owns snapshot load/save and checkpoint/resume
	// for sweeps, so an interrupted run restarted with the same flags
	// replays finished work from the cache. A server-owned shared cache is
	// persisted by the server instead, and per-job checkpointing (with its
	// process-wide signal handlers) is a batch-only feature.
	cachePath := e.path
	if e.shared {
		if j.Resume {
			return fmt.Errorf("resume checkpointing is not available on a shared-cache server")
		}
		cachePath = ""
	} else if j.Resume && cachePath == "" {
		cachePath = defaultResumeCache
		logf("scenario: -resume without -cache: checkpointing to %s", cachePath)
	}

	rejectedBefore := e.cache.Stats().Rejected
	var work expt.Work
	results, err := scenario.Run(units, scenario.RunOptions{
		Expt: expt.Options{
			UbenchScale:    scale,
			WorkloadEvents: events,
			BudgetRound1:   budget1,
			BudgetRound2:   budget2,
			Seed:           j.Seed,
			Parallelism:    e.par,
			Cache:          e.cache,
			Context:        e.ctx,
			Log:            logf,
		},
		CachePath:       cachePath,
		Checkpoint:      j.Resume,
		CheckpointEvery: ckEvery,
		Log:             logf,
		Work:            &work,
	})
	if err != nil {
		return err
	}
	// A corrupted checkpoint is worth a warning even when quiet: the
	// affected units were silently re-simulated. Compare against the
	// pre-job counter — on a shared cache the cumulative total includes
	// rejections from other loads (e.g. the server's startup warm-up),
	// which are not this job's news to report.
	if rej := e.cache.Stats().Rejected - rejectedBefore; rej > 0 {
		e.eprintf("experiments: %s: rejected %d corrupted cache entries\n", cachePath, rej)
	}

	rendered := scenario.RenderAll(results)
	e.printf("%s", rendered)
	if j.OutPath != "" {
		if err := os.WriteFile(j.OutPath, []byte(rendered), 0o644); err != nil {
			return err
		}
		e.eprintf("wrote %s\n", j.OutPath)
	}

	// Wall-clock and cache effectiveness on stderr, never in the artifact.
	for _, r := range results {
		e.eprintf("timing: %-6s %v\n", r.Unit.ID, r.Experiment.Elapsed.Round(time.Millisecond))
	}
	st := e.cache.Stats()
	e.eprintf("cache: %d hits, %d misses, %d shared in-flight (%.1f%% hit rate), %d entries\n",
		st.Hits, st.Misses, st.Shared, st.HitRate()*100, st.Entries)
	logf("%s", work)
	return nil
}

func (e *env) listScenarios(specs []scenario.Spec) error {
	units, err := scenario.Expand(specs)
	if err != nil {
		return err
	}
	perScenario := map[string]int{}
	for _, u := range units {
		perScenario[u.Scenario]++
	}
	e.printf("%-22s %-14s %5s  %s\n", "scenario", "kind", "units", "description")
	for _, s := range specs {
		e.printf("%-22s %-14s %5d  %s\n", s.Name, s.Kind, perScenario[s.Name], s.Description)
	}
	e.printf("\n%d scenarios, %d units; 'all' selects the paper set (%s)\n",
		len(specs), len(units), strings.Join(scenario.PaperSet(specs), ", "))
	return nil
}
