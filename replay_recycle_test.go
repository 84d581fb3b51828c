package racesim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/hw"
	"racesim/internal/prefetch"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// Replay recycles lane state (cache arrays, victim buffers, TLBs, page
// sets, branch and prefetcher tables, queue rings) from one simulation to
// the next. These tests dirty every piece of that state, then check that
// later simulations still match a model built from scratch.

// bigTrace is mcf at its paper-scale 16 MB working set: pointer chasing
// over thousands of 4 KB regions, enough to overflow every bounded table
// (the spatial prefetcher's 1024-region ring, TLBs, branch tables).
func bigTrace(t testing.TB) *trace.Trace {
	t.Helper()
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("missing workload mcf")
	}
	tr, err := workload.Generate(p, workload.Options{Events: 60_000, WSDivisor: 1})
	if err != nil {
		t.Fatal(err)
	}
	regions := map[uint64]bool{}
	for _, ev := range tr.Events {
		if ev.MemAddr != 0 {
			regions[ev.MemAddr>>12] = true
		}
	}
	if len(regions) <= 2048 {
		t.Fatalf("big trace touches %d 4 KB regions, want > 2048", len(regions))
	}
	return tr
}

// ubenchTrace returns the named micro-benchmark's trace at scale.
func ubenchTrace(t testing.TB, name string, scale float64) *trace.Trace {
	t.Helper()
	b, ok := ubench.ByName(name)
	if !ok {
		t.Fatalf("missing micro-benchmark %s", name)
	}
	tr, err := b.Trace(ubench.Options{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// withPrefetch returns cfg with kind at L1D and L2.
func withPrefetch(cfg sim.Config, kind prefetch.Kind) sim.Config {
	pf := prefetch.Config{Kind: kind, Degree: 4, Distance: 2, TableEntries: 64, GHBEntries: 128, OnHit: true}
	cfg.Name = fmt.Sprintf("%s+%s", cfg.Name, kind)
	cfg.Mem.L1D.Prefetch = pf
	cfg.Mem.L2.Prefetch = pf
	return cfg
}

// dirtyingConfigs returns configurations that between them write every
// piece of recyclable lane state: both hidden boards, every prefetcher
// kind (spatial included), victim buffers, PLRU and random replacement,
// every direction predictor and the indirect predictor.
func dirtyingConfigs() []sim.Config {
	out := []sim.Config{hw.TrueA53(), hw.TrueA72()}
	for _, kind := range []prefetch.Kind{prefetch.KindNextLine, prefetch.KindStride, prefetch.KindGHB, prefetch.KindSpatial} {
		out = append(out, withPrefetch(sim.PublicA53(), kind), withPrefetch(sim.PublicA72(), kind))
	}
	odd := sim.PublicA72()
	odd.Name = "victim-plru-random"
	odd.Mem.L1D.VictimEntries = 8
	odd.Mem.L2.VictimEntries = 16
	odd.Mem.L1D.Repl = cache.ReplRandom
	odd.Mem.L2.Repl = cache.ReplPLRU
	odd.Mem.L1I.Repl = cache.ReplRandom
	odd.Mem.L2.Hash = cache.HashXor
	odd.Branch.Kind = branch.KindTournament
	odd.Branch.IndirectEnabled = true
	out = append(out, odd)
	gs := sim.PublicA53()
	gs.Name = "gshare-mersenne"
	gs.Branch.Kind = branch.KindGShare
	gs.Mem.L2.Hash = cache.HashMersenne
	gs.Mem.L1D.VictimEntries = 4
	return append(out, gs)
}

// probeConfigs are replayed right after a dirtying run; each must match a
// fresh model. They differ from the dirtying configs in geometry (smaller
// and larger arrays than the hidden boards') and in predictor kind, and
// read the state only some dirtying configs write (PLRU bits, zero-fill
// page sets).
func probeConfigs() []sim.Config {
	small := sim.PublicA53()
	small.Name = "small-l2"
	small.Mem.L2.SizeKB /= 4
	small.Mem.L2.Repl = cache.ReplPLRU
	small.Mem.L1D.Prefetch = prefetch.Config{Kind: prefetch.KindStride, Degree: 2, Distance: 1, TableEntries: 16, GHBEntries: 16}
	small.Mem.ZeroFillOpt = true
	small.Branch.Kind = branch.KindStatic
	return []sim.Config{sim.PublicA53(), sim.PublicA72(), small}
}

// checkRecycled replays every dirtying config on each dirty trace, then
// every probe config on each probe trace through sim.RunBatch (which
// draws the state the dirtying run just released), and compares against
// the fresh per-event oracle.
func checkRecycled(t *testing.T, dirty, probes []*trace.Trace, want map[string]any) {
	for _, d := range dirtyingConfigs() {
		for _, dt := range dirty {
			if _, err := d.Run(dt); err != nil {
				t.Errorf("%s on %s: %v", d.Name, dt.Name, err)
				return
			}
		}
		for _, tr := range probes {
			for _, p := range probeConfigs() {
				got, err := sim.RunBatch([]sim.Config{p}, tr.Decoded(p.DecoderDepBug))
				if err != nil {
					t.Errorf("%s on %s after %s: %v", p.Name, tr.Name, d.Name, err)
					return
				}
				if w := want[p.Name+"/"+tr.Name]; !reflect.DeepEqual(w, got[0]) {
					t.Errorf("%s on %s after %s: recycled replay differs from a fresh model:\n fresh    %+v\n recycled %+v",
						p.Name, tr.Name, d.Name, w, got[0])
				}
			}
		}
	}
}

// TestRecycledStateMatchesFresh is the clean-pool regression test: after a
// run that dirtied every recyclable structure, a different configuration
// on a different trace must replay exactly as on freshly built state —
// from one goroutine, and from several at once so the race detector sees
// the pools shared.
func TestRecycledStateMatchesFresh(t *testing.T) {
	// MM_st streams stores over the buffer M_Dyn reads uninitialized, far
	// enough to write lines back to memory, so it dirties both zero-fill
	// page sets on the pages the probes' zero-fill configuration reads.
	probes := append(parityTraces(t), ubenchTrace(t, "M_Dyn", 0.01))
	dirty := []*trace.Trace{bigTrace(t), ubenchTrace(t, "MM_st", 0.05)}
	want := map[string]any{}
	for _, tr := range probes {
		for _, p := range probeConfigs() {
			res, err := runCursor(p, tr)
			if err != nil {
				t.Fatal(err)
			}
			want[p.Name+"/"+tr.Name] = res
		}
	}
	checkRecycled(t, dirty, probes, want)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkRecycled(t, dirty, probes, want)
		}()
	}
	wg.Wait()
}

// TestReplayDeterminismEveryPrefetcherAndBoard is the determinism
// property test: every prefetcher kind and both hidden boards, over a
// trace that exceeds every bounded table, replay twice (the second run on
// the first one's recycled state) to the same result as a fresh model.
func TestReplayDeterminismEveryPrefetcherAndBoard(t *testing.T) {
	tr := bigTrace(t)
	for _, cfg := range dirtyingConfigs() {
		fresh, err := runCursor(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			got, err := cfg.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, got) {
				t.Errorf("%s run %d differs from a fresh model:\n fresh %+v\n got   %+v", cfg.Name, run, fresh, got)
			}
		}
	}
}

// smallTrace is a 1,000-event mcf trace, the size each simulation of the
// perturbation study replays at benchmark scale.
func smallTrace(t testing.TB) *trace.Trace {
	t.Helper()
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("missing workload mcf")
	}
	tr, err := workload.Generate(p, workload.Options{Events: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRunAllocationGuard bounds the bytes one warmed-up simulation
// allocates. Building every lane from scratch allocated 164,070 bytes per
// run of this trace on the public A53 and 306,699 on the public A72
// (both caches' arrays, TLBs, tables, rings); with lane recycling it is
// about 4,300 and 4,500 (the batch and result bookkeeping). The bound is a
// tenth of the old figure.
func TestRunAllocationGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	tr := smallTrace(t)
	for _, c := range []struct {
		cfg   sim.Config
		bound uint64
	}{
		{sim.PublicA53(), 164_070 / 10},
		{sim.PublicA72(), 306_699 / 10},
	} {
		for i := 0; i < 10; i++ {
			if _, err := c.cfg.Run(tr); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := c.cfg.Run(tr); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= c.bound {
			t.Errorf("%s: %d bytes allocated per run, want < %d", c.cfg.Name, perRun, c.bound)
		}
	}
}
