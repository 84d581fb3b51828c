package expt

import (
	"strings"
	"testing"

	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/ubench"
)

func testUnits(t *testing.T) []Unit {
	t.Helper()
	var units []Unit
	for _, name := range []string{"MD", "MC", "CS3", "ED1"} {
		b, ok := ubench.ByName(name)
		if !ok {
			t.Fatalf("unknown bench %s", name)
		}
		tr, err := b.Trace(ubench.Options{Scale: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []sim.Config{sim.PublicA53(), sim.PublicA72()} {
			units = append(units, Unit{Config: cfg, Trace: tr})
		}
	}
	return units
}

func TestRunAllParallelMatchesSequential(t *testing.T) {
	units := testUnits(t)

	seq, err := NewRunner(nil, 1).RunAll(units)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(simcache.New(), 8).RunAll(units)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(units) || len(par) != len(units) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(units))
	}
	for i := range units {
		if seq[i] != par[i] {
			t.Errorf("unit %d: parallel cached result differs from sequential uncached", i)
		}
		direct, err := units[i].Config.Run(units[i].Trace)
		if err != nil {
			t.Fatal(err)
		}
		if seq[i] != direct {
			t.Errorf("unit %d: runner result differs from direct simulation", i)
		}
	}
}

func TestRunAllDeduplicatesRepeats(t *testing.T) {
	units := testUnits(t)
	// Submit every unit twice; the cache must simulate each once.
	doubled := append(append([]Unit{}, units...), units...)
	cache := simcache.New()
	res, err := NewRunner(cache, 4).RunAll(doubled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range units {
		if res[i] != res[i+len(units)] {
			t.Errorf("unit %d: repeat submission returned a different result", i)
		}
	}
	st := cache.Stats()
	if st.Misses != uint64(len(units)) {
		t.Errorf("misses = %d, want %d (one per distinct unit)", st.Misses, len(units))
	}
	if st.Hits+st.Shared != uint64(len(units)) {
		t.Errorf("hits %d + shared %d = %d, want %d", st.Hits, st.Shared, st.Hits+st.Shared, len(units))
	}
}

func TestRunAllReportsLowestIndexedError(t *testing.T) {
	units := testUnits(t)
	bad := units[3]
	bad.Config.Kind = "bogus"
	units[3] = bad
	units[5].Config.Kind = "bogus"

	_, err := NewRunner(simcache.New(), 4).RunAll(units)
	if err == nil {
		t.Fatal("want an error from the invalid units")
	}
	if !strings.Contains(err.Error(), "unit 3 ") {
		t.Errorf("error %q does not name the lowest-indexed failing unit", err)
	}
}

func TestMeasureAllMatchesSequential(t *testing.T) {
	ctx, err := NewContext(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ubench.ByName("MD")
	tr1, err := b.Trace(ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := ubench.ByName("MC")
	tr2, err := b2.Trace(ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	board := ctx.Platform().A53
	par, err := NewRunner(nil, 4).MeasureAll(board, []*trace.Trace{tr1, tr2})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range []*trace.Trace{tr1, tr2} {
		direct, err := board.Measure(tr)
		if err != nil {
			t.Fatal(err)
		}
		if par[i] != direct {
			t.Errorf("trace %d: parallel measurement differs from direct", i)
		}
	}
}

// expOptions sizes a full All() run small enough for tests while still
// exercising both tuning pipelines, the spec workloads and the
// perturbation study.
func expOptions(parallelism int, cache *simcache.Cache) Options {
	return Options{
		UbenchScale:     0.001,
		WorkloadEvents:  2_000,
		BudgetRound1:    60,
		BudgetRound2:    60,
		PerturbRestarts: 1,
		Parallelism:     parallelism,
		Cache:           cache,
	}
}

func renderAll(t *testing.T, opts Options) string {
	t.Helper()
	ctx, err := NewContext(opts)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := ctx.All()
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, e := range exps {
		out += e.Render()
	}
	return out
}

func TestAllParallelByteIdenticalToSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	seq := renderAll(t, expOptions(1, nil))
	par := renderAll(t, expOptions(8, simcache.New()))
	if seq != par {
		t.Errorf("parallel cached output differs from sequential uncached output:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestAllWarmCacheMostlyHits(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	cache := simcache.New()
	first := renderAll(t, expOptions(4, cache))
	cold := cache.Stats()
	second := renderAll(t, expOptions(4, cache))
	warm := cache.Stats()
	if first != second {
		t.Error("warm-cache rerun changed the rendered output")
	}
	hits := warm.Hits - cold.Hits
	misses := warm.Misses - cold.Misses
	total := hits + misses + (warm.Shared - cold.Shared)
	if total == 0 {
		t.Fatal("second run performed no cache lookups")
	}
	rate := float64(hits+(warm.Shared-cold.Shared)) / float64(total)
	t.Logf("warm run: %d hits, %d misses (%.1f%% hit rate)", hits, misses, rate*100)
	if rate < 0.5 {
		t.Errorf("warm-cache hit rate %.1f%% < 50%%", rate*100)
	}
}
