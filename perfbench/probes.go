package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/isa"
	"racesim/internal/lmbench"
	"racesim/internal/perturb"
	"racesim/internal/plausibility"
	"racesim/internal/prefetch"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/validate"
	"racesim/internal/workload"
)

var prefetchKinds = []string{"next_line", "stride", "ghb", "spatial"}

// probeInput is what the layer probes run on: the workload's own traces
// (by how to synthesize them) and its own configurations.
type probeInput struct {
	benches  []ubench.Bench
	ubOpts   ubench.Options
	profiles []workload.Profile
	wlOpts   workload.Options
	// inorder and ooo are lane groups of configurations the workload
	// replays on each core kind; their first entries also size the
	// hierarchy, prefetch and branch probes.
	inorder, ooo []sim.Config
	plat         *hw.Platform
	// tuneBase seeds the irace probe; perturbBase is the optimum the
	// perturbation probe walks away from.
	tuneBase, perturbBase sim.Config
	budget                int
	seed                  int64
}

// probeTrace is one synthesized trace and the board that measures it.
type probeTrace struct {
	tr    *trace.Trace
	bench *ubench.Bench // nil for a SPEC workload
}

// runProbes times direct calls into each layer under a "probes" span and
// fills the per-layer metrics. Every replayed result must pass
// plausibility.CheckResult, and the lane-batched results must equal the
// sequential ones.
func runProbes(r *run, in probeInput) error {
	tr := r.tracer
	root := tr.Begin(0, "probes")
	defer tr.End(root, nil)

	// Synthesis: assemble and emulate the micro-benchmarks, generate the
	// SPEC workloads.
	var traces []probeTrace
	var asmD, emuD time.Duration
	var insts int64
	sp := tr.Begin(root, "probe.synth")
	for i := range in.benches {
		b := &in.benches[i]
		t0 := time.Now()
		prog, err := b.Program(in.ubOpts)
		if err != nil {
			return fmt.Errorf("probe: program %s: %w", b.Name, err)
		}
		t1 := time.Now()
		t, err := trace.Record(b.Name, prog, 4*b.Target(in.ubOpts)+1_000_000)
		if err != nil {
			return fmt.Errorf("probe: record %s: %w", b.Name, err)
		}
		t2 := time.Now()
		asmD += t1.Sub(t0)
		emuD += t2.Sub(t1)
		insts += int64(t.Len())
		traces = append(traces, probeTrace{tr: t, bench: b})
	}
	for _, p := range in.profiles {
		t0 := time.Now()
		t, err := workload.Generate(p, in.wlOpts)
		if err != nil {
			return fmt.Errorf("probe: generate %s: %w", p.Name, err)
		}
		emuD += time.Since(t0)
		insts += int64(t.Len())
		traces = append(traces, probeTrace{tr: t})
	}
	tr.End(sp, map[string]any{"traces": len(traces), "insts": insts})
	r.layer["synth.traces"] = float64(len(traces))
	r.layer["synth.insts"] = float64(insts)
	r.layer["asm.s"] = asmD.Seconds()
	r.layer["emu.s"] = emuD.Seconds()
	r.layer["synth.ns_per_inst"] = float64((asmD + emuD).Nanoseconds()) / float64(insts)

	// Decode once per variant, then compile behaviors.
	sp = tr.Begin(root, "probe.decode")
	t0 := time.Now()
	for _, pt := range traces {
		pt.tr.Decoded(false)
		pt.tr.Decoded(true)
	}
	decD := time.Since(t0)
	tr.End(sp, nil)
	r.layer["decode.s"] = decD.Seconds()
	r.layer["decode.ns_per_inst"] = float64(decD.Nanoseconds()) / float64(2*insts)

	sp = tr.Begin(root, "probe.behaviors")
	t0 = time.Now()
	for _, pt := range traces {
		sim.Behaviors(pt.tr.Decoded(false))
		sim.Behaviors(pt.tr.Decoded(true))
	}
	r.layer["behav.s"] = time.Since(t0).Seconds()
	tr.End(sp, nil)

	// Sequential replay per config against lane-batched replay of the
	// same lane group, alternating which runs first per trace.
	var seqD, batchD [2]time.Duration
	var seqInsts, batchInsts [2]int64
	var sims [2]int
	sp = tr.Begin(root, "probe.replay")
	for ti, pt := range traces {
		for k, group := range [][]sim.Config{in.inorder, in.ooo} {
			for _, variant := range []bool{false, true} {
				var cfgs []sim.Config
				for _, c := range group {
					if c.DecoderDepBug == variant {
						cfgs = append(cfgs, c)
					}
				}
				if len(cfgs) == 0 {
					continue
				}
				d := pt.tr.Decoded(variant)
				var seq []core.Result
				runSeq := func() error {
					t0 := time.Now()
					for _, c := range cfgs {
						res, err := c.RunDecoded(d)
						if err != nil {
							return fmt.Errorf("probe: replay %s on %s: %w", pt.tr.Name, c.Name, err)
						}
						seq = append(seq, res)
					}
					seqD[k] += time.Since(t0)
					seqInsts[k] += int64(len(cfgs) * d.Len())
					sims[k] += len(cfgs)
					return nil
				}
				var batch []core.Result
				runBatch := func() (err error) {
					t0 := time.Now()
					batch, err = sim.RunBatch(cfgs, d)
					batchD[k] += time.Since(t0)
					if err != nil {
						return fmt.Errorf("probe: batch %s: %w", pt.tr.Name, err)
					}
					batchInsts[k] += int64(len(cfgs) * d.Len())
					return nil
				}
				first, second := runSeq, runBatch
				if ti%2 == 1 {
					first, second = runBatch, runSeq
				}
				if err := first(); err != nil {
					return err
				}
				if err := second(); err != nil {
					return err
				}
				// Checked off the clock, after both timed replays.
				for i, c := range cfgs {
					vs := plausibility.CheckResult(c, seq[i])
					r.check(len(vs) == 0, "plausibility: %s on %s: %v", pt.tr.Name, c.Name, vs)
				}
				r.check(reflect.DeepEqual(seq, batch), "lane-batched replay of %s differs from sequential replay", pt.tr.Name)
			}
		}
	}
	tr.End(sp, nil)
	r.layer["replay.sims.inorder"] = float64(sims[0])
	r.layer["replay.sims.ooo"] = float64(sims[1])
	r.layer["replay.insts"] = float64(seqInsts[0] + seqInsts[1])
	r.layer["replay.inorder.ns_per_inst"] = nsPer(seqD[0], seqInsts[0])
	r.layer["replay.ooo.ns_per_inst"] = nsPer(seqD[1], seqInsts[1])
	r.layer["replay.batch.ns_per_inst"] = nsPer(batchD[0]+batchD[1], batchInsts[0]+batchInsts[1])
	r.layer["replay.batch_vs_seq"] = float64(seqD[0]+seqD[1]) / float64(batchD[0]+batchD[1])

	// Memory hierarchy, prefetchers and branch unit, driven directly by
	// the traces' own addresses and branches on the first config of each
	// kind.
	sp = tr.Begin(root, "probe.hierarchy")
	var newD, accD time.Duration
	var news, accesses int64
	type memAccess struct {
		pc, line uint64
		miss     bool
	}
	var stream []memAccess
	for _, cfg := range []sim.Config{in.inorder[0], in.ooo[0]} {
		for _, pt := range traces {
			t0 := time.Now()
			h, err := cache.NewHierarchy(cfg.Mem)
			if err != nil {
				return fmt.Errorf("probe: hierarchy: %w", err)
			}
			newD += time.Since(t0)
			news++
			d := pt.tr.Decoded(false)
			t0 = time.Now()
			var now uint64
			for i := 0; i < d.Len(); i++ {
				now++
				h.Fetch(now, d.PC[i])
				switch d.Inst(i).Cls {
				case isa.ClassLoad:
					res := h.Load(now, d.PC[i], d.MemAddr[i])
					stream = append(stream, memAccess{d.PC[i], d.MemAddr[i] &^ 63, res.Level > 1})
					accesses++
				case isa.ClassStore:
					res := h.Store(now, d.PC[i], d.MemAddr[i])
					stream = append(stream, memAccess{d.PC[i], d.MemAddr[i] &^ 63, res.Level > 1})
					accesses++
				}
				accesses++
			}
			accD += time.Since(t0)
		}
	}
	tr.End(sp, nil)
	r.layer["hier.new_us"] = float64(newD.Microseconds()) / float64(news)
	r.layer["hier.accesses"] = float64(accesses)
	r.layer["hier.ns_per_access"] = nsPer(accD, accesses)

	sp = tr.Begin(root, "probe.prefetch")
	for _, kind := range prefetchKinds {
		cfg := prefetch.DefaultConfig()
		cfg.Kind = prefetch.Kind(kind)
		p, err := prefetch.New(cfg, 64)
		if err != nil {
			return fmt.Errorf("probe: prefetch %s: %w", kind, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for _, a := range stream {
			p.Observe(a.pc, a.line, a.miss)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		r.layer["prefetch."+kind+".ns_per_observe"] = nsPer(d, int64(len(stream)))
		r.layer["prefetch."+kind+".allocs_per_observe"] = float64(after.Mallocs-before.Mallocs) / float64(len(stream))
	}
	tr.End(sp, map[string]any{"observes": len(stream)})

	sp = tr.Begin(root, "probe.branch")
	var brD time.Duration
	var brN int64
	for _, cfg := range []sim.Config{in.inorder[0], in.ooo[0]} {
		for _, pt := range traces {
			u, err := branch.NewUnit(cfg.Branch)
			if err != nil {
				return fmt.Errorf("probe: branch unit: %w", err)
			}
			d := pt.tr.Decoded(false)
			t0 := time.Now()
			for i := 0; i < d.Len(); i++ {
				in := d.Inst(i)
				switch in.Cls {
				case isa.ClassBranch, isa.ClassBranchInd, isa.ClassCall, isa.ClassRet:
					u.AccessOutcome(in.Cls, in.Op, d.PC[i], d.Target[i], d.Taken(i))
					brN++
				}
			}
			brD += time.Since(t0)
		}
	}
	tr.End(sp, map[string]any{"accesses": brN})
	r.layer["branch.ns_per_access"] = nsPer(brD, brN)

	// Board measurement and lmbench latency estimation.
	sp = tr.Begin(root, "probe.measure")
	var ms []validate.Measurement
	var ws []perturb.Workload
	t0 = time.Now()
	for _, pt := range traces {
		c, err := in.plat.A53.Measure(pt.tr)
		if err != nil {
			return fmt.Errorf("probe: measure %s: %w", pt.tr.Name, err)
		}
		if pt.bench != nil {
			ms = append(ms, validate.Measurement{Bench: *pt.bench, Trace: pt.tr, Counters: c})
		} else {
			ws = append(ws, perturb.Workload{Name: pt.tr.Name, Trace: pt.tr, Counters: c})
		}
	}
	r.layer["measure.s"] = time.Since(t0).Seconds()
	r.layer["measure.traces"] = float64(len(traces))
	tr.End(sp, nil)
	sp = tr.Begin(root, "probe.lmbench")
	t0 = time.Now()
	for _, b := range []*hw.Board{in.plat.A53, in.plat.A72} {
		if _, err := lmbench.Estimate(b); err != nil {
			return fmt.Errorf("probe: lmbench: %w", err)
		}
	}
	r.layer["lmbench.s"] = time.Since(t0).Seconds()
	tr.End(sp, nil)

	// Cache keys, hits and the snapshot round trip.
	sp = tr.Begin(root, "probe.simcache")
	pc := simcache.New()
	var keys int64
	t0 = time.Now()
	for _, pt := range traces {
		for _, c := range in.inorder {
			simcache.Key(c, pt.tr)
			keys++
		}
	}
	r.layer["simcache.key_us"] = float64(time.Since(t0).Nanoseconds()) / float64(keys) / 1e3
	for _, pt := range traces {
		if _, err := pc.Run(in.inorder[0], pt.tr); err != nil {
			return fmt.Errorf("probe: simcache run: %w", err)
		}
	}
	t0 = time.Now()
	for _, pt := range traces {
		if _, err := pc.Run(in.inorder[0], pt.tr); err != nil {
			return fmt.Errorf("probe: simcache hit: %w", err)
		}
	}
	r.layer["simcache.hit_us"] = float64(time.Since(t0).Nanoseconds()) / float64(len(traces)) / 1e3
	tr.End(sp, nil)

	// One irace tuning round and one perturbation search, each over a
	// fresh cache so their simulation counts are their own.
	sp = tr.Begin(root, "probe.irace")
	t0 = time.Now()
	tune, err := validate.Tune(in.tuneBase, ms, validate.TuneOptions{
		Budget: in.budget, Seed: in.seed, Cache: simcache.New(), Parallelism: r.par,
	})
	if err != nil {
		return fmt.Errorf("probe: tune: %w", err)
	}
	r.layer["irace.s"] = time.Since(t0).Seconds()
	r.layer["irace.evals"] = float64(tune.Irace.Evaluations)
	r.layer["irace.evals_per_budget"] = float64(tune.Irace.Evaluations) / float64(in.budget)
	tr.End(sp, map[string]any{"evals": tune.Irace.Evaluations})

	sp = tr.Begin(root, "probe.perturb")
	perturbCache := simcache.New()
	t0 = time.Now()
	if _, err := perturb.WorstNearOptimum(in.perturbBase, ws, perturb.Options{
		Restarts: 1, MaxPasses: 1, Seed: in.seed, Cache: perturbCache, Parallelism: r.par,
	}); err != nil {
		return fmt.Errorf("probe: perturb: %w", err)
	}
	r.layer["perturb.s"] = time.Since(t0).Seconds()
	st := perturbCache.Stats()
	lookups := st.Hits + st.Misses + st.Shared
	r.layer["perturb.configs"] = float64(lookups) / float64(len(ws))
	r.layer["perturb.sims"] = float64(st.Misses)
	r.layer["perturb.hit_rate"] = float64(st.Hits+st.Shared) / float64(lookups)
	tr.End(sp, map[string]any{"sims": st.Misses, "lookups": lookups})

	r.repeatCounts("probes", map[string]int64{
		"synth_insts": insts, "irace_evals": int64(tune.Irace.Evaluations),
		"perturb_lookups": int64(lookups), "perturb_sims": int64(st.Misses),
	})
	return nil
}

// snapshotProbe times a snapshot save and checked open of cache.
func snapshotProbe(r *run, parent int, c *simcache.Cache) error {
	path := filepath.Join(r.dir, "probe.snap")
	sp := r.tracer.Begin(parent, "snapshot.save")
	t0 := time.Now()
	if err := c.SaveFile(path); err != nil {
		return fmt.Errorf("probe: save snapshot: %w", err)
	}
	r.layer["snapshot.save_s"] = time.Since(t0).Seconds()
	r.tracer.End(sp, nil)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.layer["snapshot.bytes"] = float64(fi.Size())
	sp = r.tracer.Begin(parent, "snapshot.open")
	t0 = time.Now()
	oc := simcache.New()
	n, rejected, err := oc.LoadChecked(path)
	if err != nil {
		return fmt.Errorf("probe: open snapshot: %w", err)
	}
	r.layer["snapshot.open_s"] = time.Since(t0).Seconds()
	r.tracer.End(sp, map[string]any{"entries": n})
	r.layer["snapshot.entries"] = float64(n)
	r.check(rejected == 0 && n == c.Stats().Entries, "snapshot round trip: %d of %d entries, %d rejected", n, c.Stats().Entries, rejected)
	oc.Close()
	return nil
}

func nsPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
