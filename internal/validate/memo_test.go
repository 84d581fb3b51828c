package validate

import (
	"testing"

	"racesim/internal/hw"
	"racesim/internal/sim"
	"racesim/internal/tracememo"
)

// TestPipelineSharesTracesThroughMemo: through a job's memo the raw and
// initialized suites share every program they have in common (one
// emulation, one *trace.Trace), the lmbench chases are recorded once for
// both boards, and the board simulates each distinct content once.
func TestPipelineSharesTracesThroughMemo(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	memo := tracememo.New(0, 0)
	stages, err := Pipeline(p.A53, sim.PublicA53(), PipelineOptions{
		BudgetRound1: 40, BudgetRound2: 40, Seed: 1, UbenchScale: 0.0005,
		Traces: memo, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, init := stages[0].Ms, stages[len(stages)-1].Ms
	shared := 0
	digests := map[string]bool{}
	for i := range raw {
		digests[raw[i].Trace.Digest()] = true
		digests[init[i].Trace.Digest()] = true
		if raw[i].Trace.Digest() != init[i].Trace.Digest() {
			continue
		}
		if raw[i].Trace != init[i].Trace {
			t.Errorf("%s: equal raw and initialized content recorded twice", raw[i].Bench.Name)
		}
		shared++
	}
	if shared == 0 || shared == len(raw) {
		t.Fatalf("%d of %d benchmarks share their raw and initialized trace; want some, not all", shared, len(raw))
	}
	const lmbenchTraces = 6 // three chases and their calibrations
	st := memo.Stats()
	if want := uint64(2*len(raw) - shared + lmbenchTraces); st.Misses != want {
		t.Errorf("%d emulations, want %d", st.Misses, want)
	}
	if bs := p.A53.Stats(); bs.Simulated != uint64(len(digests)+lmbenchTraces) {
		t.Errorf("board simulated %d runs, want one per distinct content (%d)", bs.Simulated, len(digests)+lmbenchTraces)
	}

	// The A72's latency estimate reuses the A53's chase traces.
	before := memo.Stats().Misses
	if _, err := SeedLatencies(sim.PublicA72(), p.A72, memo); err != nil {
		t.Fatal(err)
	}
	if after := memo.Stats().Misses; after != before {
		t.Errorf("a second board re-recorded %d lmbench traces", after-before)
	}
}
