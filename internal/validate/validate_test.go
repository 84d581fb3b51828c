package validate

import (
	"math"
	"testing"

	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/sim"
	"racesim/internal/ubench"
)

func measurements(t *testing.T, board *hw.Board) []Measurement {
	t.Helper()
	ms, err := MeasureSuite(board, ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestMeasureSuiteCoversAllBenches(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)
	if len(ms) != 40 {
		t.Fatalf("%d measurements, want 40", len(ms))
	}
	for _, m := range ms {
		if m.Counters.CPI <= 0 {
			t.Errorf("%s: zero CPI", m.Bench.Name)
		}
		if m.Trace.Len() == 0 {
			t.Errorf("%s: empty trace", m.Bench.Name)
		}
	}
}

func TestErrorsAndAggregates(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)
	es, err := Errors(sim.PublicA53(), ms)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := MeanError(es)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 0.10 {
		t.Errorf("untuned mean error %.1f%% too low to exercise the methodology", mean*100)
	}
	worst, ok, err := MaxError(es)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || worst.Error < mean {
		t.Errorf("worst error %v below mean %v", worst.Error, mean)
	}
	cats := CategoryErrors(es)
	if len(cats) != 5 {
		t.Errorf("category triage covers %d categories, want 5", len(cats))
	}
	t.Logf("untuned A53: mean %.1f%%, worst %s %.1f%%", mean*100, worst.Name, worst.Error*100)
}

func TestEvaluatorInvalidAssignmentLosesRaces(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)[:3]
	e := &Evaluator{Base: sim.PublicA53(), Ms: ms}
	bad := irace.Assignment{"l1d.hit_latency": "nonsense"}
	if c := e.Cost(bad, 0); !math.IsInf(c, 1) {
		t.Errorf("invalid assignment cost = %v, want +Inf", c)
	}
	good := sim.Extract(sim.PublicA53())
	if c := e.Cost(good, 0); math.IsInf(c, 1) || c < 0 {
		t.Errorf("valid assignment cost = %v", c)
	}
}

func TestTuneReducesError(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)
	base := sim.PublicA53()
	before, err := Errors(base, ms)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(base, ms, TuneOptions{Budget: 900, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	after, err := MeanError(res.Errors)
	if err != nil {
		t.Fatal(err)
	}
	beforeMean, err := MeanError(before)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tune: %.1f%% -> %.1f%% (budget 900)", beforeMean*100, after*100)
	if after >= beforeMean {
		t.Errorf("tuning did not reduce mean error: %.3f -> %.3f", beforeMean, after)
	}
}

func TestSeedLatencies(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := SeedLatencies(sim.PublicA53(), p.A53)
	if err != nil {
		t.Fatal(err)
	}
	truth := p.A53.TrueConfig()
	if cfg.Mem.L1D.HitLatency != truth.Mem.L1D.HitLatency {
		t.Errorf("seeded L1 latency %d, truth %d", cfg.Mem.L1D.HitLatency, truth.Mem.L1D.HitLatency)
	}
	// L2 and DRAM should land within one step of truth.
	if d := cfg.Mem.L2.HitLatency - truth.Mem.L2.HitLatency; d < -3 || d > 6 {
		t.Errorf("seeded L2 latency %d, truth %d", cfg.Mem.L2.HitLatency, truth.Mem.L2.HitLatency)
	}
	if d := cfg.Mem.DRAM.LatencyCycles - truth.Mem.DRAM.LatencyCycles; d < -60 || d > 60 {
		t.Errorf("seeded DRAM latency %d, truth %d", cfg.Mem.DRAM.LatencyCycles, truth.Mem.DRAM.LatencyCycles)
	}
}

func TestPipelineStagedImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("staged pipeline is expensive")
	}
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Pipeline(p.A53, sim.PublicA53(), PipelineOptions{
		BudgetRound1: 800,
		BudgetRound2: 1000,
		Seed:         3,
		UbenchScale:  0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("%d stages, want 3", len(stages))
	}
	u, r1, fx := stages[0].MeanError, stages[1].MeanError, stages[2].MeanError
	t.Logf("pipeline: untuned %.1f%% -> round1 %.1f%% -> fixed %.1f%%", u*100, r1*100, fx*100)
	if r1 >= u {
		t.Errorf("round 1 (%.3f) did not improve on untuned (%.3f)", r1, u)
	}
	if fx >= r1 {
		t.Errorf("fixes+round 2 (%.3f) did not improve on round 1 (%.3f)", fx, r1)
	}
}
