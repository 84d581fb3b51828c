package hw

import (
	"sync"
	"testing"

	"racesim/internal/prefetch"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
)

func TestTrueConfigsValidate(t *testing.T) {
	for _, cfg := range []sim.Config{TrueA53(), TrueA72()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestTrueTunablesInsideSearchSpace(t *testing.T) {
	// Every tunable of the ground truth must be a value the tuner could
	// select — except the deliberate abstraction gaps.
	for _, cfg := range []sim.Config{TrueA53(), TrueA72()} {
		space, err := sim.Space(cfg.Kind)
		if err != nil {
			t.Fatal(err)
		}
		a := sim.Extract(cfg)
		err = space.Validate(a)
		if cfg.Kind == sim.InOrder {
			if err != nil {
				t.Errorf("%s: ground truth outside space: %v", cfg.Name, err)
			}
		} else {
			// The A72's spatial L2 prefetcher is intentionally outside.
			if err == nil {
				t.Errorf("%s: expected the spatial prefetcher to be outside the space", cfg.Name)
			}
			a["l2.prefetch.kind"] = "stride"
			if err := space.Validate(a); err != nil {
				t.Errorf("%s: after masking the prefetcher, still outside: %v", cfg.Name, err)
			}
		}
	}
}

func TestAbstractionGapsPresent(t *testing.T) {
	a53, a72 := TrueA53(), TrueA72()
	if !a53.Mem.ZeroFillOpt || !a72.Mem.ZeroFillOpt {
		t.Error("boards must implement the zero-fill page optimization")
	}
	if a53.DecoderDepBug || a72.DecoderDepBug {
		t.Error("boards must decode correctly")
	}
	if a72.Mem.L2.Prefetch.Kind != prefetch.KindSpatial {
		t.Error("A72 must use the undisclosed spatial prefetcher")
	}
	pub53, pub72 := sim.PublicA53(), sim.PublicA72()
	if pub53.Mem.ZeroFillOpt || pub72.Mem.ZeroFillOpt {
		t.Error("public models must not know about zero-fill")
	}
	if !pub53.DecoderDepBug || !pub72.DecoderDepBug {
		t.Error("public models start with the decoder bug")
	}
}

func TestMeasureDeterministicWithNoise(t *testing.T) {
	p, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ubench.ByName("ED1")
	tr, err := b.Trace(ubench.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := p.A53.Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.A53.Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("repeated measurement differs (noise must be deterministic)")
	}
	if c1.CPI <= 0 || c1.Instructions == 0 {
		t.Errorf("bad counters: %+v", c1)
	}
	// Noise must actually perturb relative to the noiseless run.
	noiseless, err := NewBoard("x", 1.5, TrueA53(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := noiseless.Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Cycles == c3.Cycles {
		t.Log("noise happened to round to zero for this trace (acceptable)")
	}
	ratio := float64(c1.Cycles) / float64(c3.Cycles)
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("noise ratio %v outside ±1%%+rounding", ratio)
	}
}

func TestPublicModelsDivergeFromBoards(t *testing.T) {
	// The whole premise: best-guess models mispredict the boards. Check a
	// healthy average CPI error across a few microbenchmarks.
	p, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		board  *Board
		public sim.Config
	}{
		{p.A53, sim.PublicA53()},
		{p.A72, sim.PublicA72()},
	}
	for _, c := range cases {
		var totalErr float64
		n := 0
		for _, name := range []string{"ED1", "EF", "CCh", "MD", "CS1", "MIM"} {
			b, _ := ubench.ByName(name)
			tr, err := b.Trace(ubench.Options{})
			if err != nil {
				t.Fatal(err)
			}
			hwC, err := c.board.Measure(tr)
			if err != nil {
				t.Fatal(err)
			}
			simR, err := c.public.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			e := (simR.CPI() - hwC.CPI) / hwC.CPI
			if e < 0 {
				e = -e
			}
			totalErr += e
			n++
		}
		avg := totalErr / float64(n)
		if avg < 0.10 {
			t.Errorf("%s: untuned average CPI error %.1f%% suspiciously low; the boards must diverge from the public model", c.board.Name, avg*100)
		}
		t.Logf("%s: untuned average CPI error over probe benches: %.1f%%", c.board.Name, avg*100)
	}
}

func TestBadBoardConfigs(t *testing.T) {
	bad := sim.PublicA53()
	bad.Width = 0
	if _, err := NewBoard("x", 1, bad, 0.01); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewBoard("x", 1, sim.PublicA53(), 0.5); err == nil {
		t.Error("absurd noise accepted")
	}
}

func TestWarmDataDisablesZeroFillOnBoard(t *testing.T) {
	// A cold-read stream measured with and without the WarmData
	// declaration: the board's zero-fill optimization must only apply to
	// the cold (uninitialized) variant.
	b, _ := ubench.ByName("MIM")
	tr, err := b.Trace(ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.A53.Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	warm := &trace.Trace{Name: tr.Name, Events: tr.Events, WarmData: true}
	warmC, err := p.A53.Measure(warm)
	if err != nil {
		t.Fatal(err)
	}
	if warmC.CPI <= cold.CPI {
		t.Errorf("warm-data CPI %.2f should exceed zero-filled cold CPI %.2f", warmC.CPI, cold.CPI)
	}
}

// TestMeasureSimulatesEachContentOnce: a board runs its timing model once
// per trace content, even under concurrent Measures, yet two traces with
// equal content and different names still draw their own noise.
func TestMeasureSimulatesEachContentOnce(t *testing.T) {
	b, _ := ubench.ByName("MD")
	tr, err := b.Trace(ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	twin := &trace.Trace{Name: "MD-twin", Events: tr.Events, WarmData: tr.WarmData}
	if twin.Digest() != tr.Digest() {
		t.Fatal("twin trace content differs")
	}

	board, err := NewBoard("memo", 1.5, TrueA53(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	got := make([]Counters, n)
	errs := make([]error, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = board.Measure(tr)
		}()
	}
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("concurrent measure %d = %+v, want %+v", i, got[i], got[0])
		}
	}
	twinC, err := board.Measure(twin)
	if err != nil {
		t.Fatal(err)
	}
	if st := board.Stats(); st.Simulated != 1 || st.Reused != n {
		t.Errorf("stats = %+v, want 1 simulated and %d reused", st, n)
	}
	if twinC.Cycles == got[0].Cycles {
		t.Error("equal content under another name drew the same noise")
	}

	// The memo never changes what a measurement reports: a fresh board
	// measuring the twin alone agrees.
	fresh, err := NewBoard("memo", 1.5, TrueA53(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := fresh.Measure(twin)
	if err != nil {
		t.Fatal(err)
	}
	if alone != twinC {
		t.Errorf("memoized twin %+v, fresh board %+v", twinC, alone)
	}
	if st := fresh.Stats(); st.Simulated != 1 || st.Reused != 0 {
		t.Errorf("fresh board stats = %+v, want 1 simulated, 0 reused", st)
	}
}
