package sim

import (
	mathrand "math/rand"
	"testing"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/irace"
	"racesim/internal/prefetch"
	"racesim/internal/trace"
	"racesim/internal/ubench"
)

// canonicalTraces exercise what the inert fields sit next to: indirect
// branches (CS1), conditional branches (CRd) and prefetch-friendly and
// multi-stream loads (MIP, MIM2).
func canonicalTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, name := range []string{"CS1", "CRd", "MIP", "MIM2"} {
		b, ok := ubench.ByName(name)
		if !ok {
			t.Fatalf("missing micro-benchmark %s", name)
		}
		tr, err := b.Trace(ubench.Options{Scale: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

func pow2(rng *mathrand.Rand, maxLog int) int { return 1 << rng.Intn(maxLog+1) }

// randomizeInert rewrites every field the model never reads under cfg's
// live settings with a random value that keeps cfg valid.
func randomizeInert(cfg Config, rng *mathrand.Rand) Config {
	for _, l := range []*cache.Config{&cfg.Mem.L1I, &cfg.Mem.L1D, &cfg.Mem.L2} {
		l.MSHRs = 1 + rng.Intn(32)
		p := &l.Prefetch
		switch p.Kind {
		case prefetch.KindNone:
			p.Degree = 1 + rng.Intn(16)
			p.Distance = 1 + rng.Intn(64)
			p.TableEntries = pow2(rng, 10)
			p.GHBEntries = 1 + rng.Intn(1024)
			p.OnHit = rng.Intn(2) == 0
		case prefetch.KindNextLine:
			p.TableEntries = pow2(rng, 10)
			p.GHBEntries = 1 + rng.Intn(1024)
		case prefetch.KindStride:
			p.GHBEntries = 1 + rng.Intn(1024)
		}
	}
	b := &cfg.Branch
	switch b.Kind {
	case branch.KindStatic:
		b.BimodalEntries, b.GShareEntries = pow2(rng, 14), pow2(rng, 14)
		b.HistoryBits, b.ChooserEntries = rng.Intn(16), pow2(rng, 14)
	case branch.KindBimodal:
		b.GShareEntries, b.HistoryBits, b.ChooserEntries = pow2(rng, 14), rng.Intn(16), pow2(rng, 14)
	case branch.KindGShare:
		b.BimodalEntries, b.ChooserEntries = pow2(rng, 14), pow2(rng, 14)
	}
	if !b.IndirectEnabled {
		b.IndirectEntries, b.IndirectHistory = pow2(rng, 12), rng.Intn(16)
	}
	return cfg
}

// inertParam reports whether tuner parameter name is never read under
// cfg's live settings (mirrors Config.canonical).
func inertParam(cfg Config, name string) bool {
	pfKind := func(prefix string) prefetch.Kind {
		switch prefix {
		case "l1i":
			return cfg.Mem.L1I.Prefetch.Kind
		case "l1d":
			return cfg.Mem.L1D.Prefetch.Kind
		}
		return cfg.Mem.L2.Prefetch.Kind
	}
	for _, lvl := range []string{"l1i", "l1d", "l2"} {
		switch name {
		case lvl + ".prefetch.degree", lvl + ".prefetch.distance", lvl + ".prefetch.on_hit":
			return pfKind(lvl) == prefetch.KindNone
		case lvl + ".prefetch.table":
			k := pfKind(lvl)
			return k == prefetch.KindNone || k == prefetch.KindNextLine
		}
	}
	k := cfg.Branch.Kind
	switch name {
	case "l2.mshrs":
		return true
	case "branch.bimodal_entries":
		return k != branch.KindBimodal && k != branch.KindTournament
	case "branch.gshare_entries", "branch.history_bits":
		return k != branch.KindGShare && k != branch.KindTournament
	case "branch.chooser_entries":
		return k != branch.KindTournament
	case "branch.indirect_entries", "branch.indirect_history":
		return !cfg.Branch.IndirectEnabled
	}
	return false
}

// TestFingerprintIgnoresInertFields draws random valid configurations
// from the tuner's space for both core kinds, rewrites every inert field,
// and checks that the fingerprint and the simulated result both stay
// the same, while changing any live tunable changes the fingerprint.
func TestFingerprintIgnoresInertFields(t *testing.T) {
	traces := canonicalTraces(t)
	samples := 12
	if testing.Short() {
		samples = 4
	}
	for _, kind := range []CoreKind{InOrder, OutOfOrder} {
		space, err := Space(kind)
		if err != nil {
			t.Fatal(err)
		}
		base := PublicA53()
		if kind == OutOfOrder {
			base = PublicA72()
		}
		defs := Params(kind)
		rng := newTestRand(7)
		for i := 0; i < samples; i++ {
			cfg, err := Apply(base, irace.SampleUniform(space, rng))
			if err != nil {
				t.Fatal(err)
			}
			variant := randomizeInert(cfg, rng)
			if err := variant.Validate(); err != nil {
				t.Fatalf("%s #%d: randomized inert fields made the config invalid: %v", kind, i, err)
			}
			if variant == cfg {
				t.Fatalf("%s #%d: randomizing changed nothing", kind, i)
			}
			if cfg.Fingerprint() != variant.Fingerprint() {
				t.Errorf("%s #%d: inert fields changed the fingerprint\n%+v\n%+v", kind, i, cfg, variant)
			}
			for _, tr := range traces {
				d := tr.Decoded(cfg.DecoderDepBug)
				want, err := cfg.RunDecoded(d)
				if err != nil {
					t.Fatal(err)
				}
				got, err := variant.RunDecoded(d)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s #%d on %s: inert fields changed the result\n got %+v\nwant %+v", kind, i, tr.Name, got, want)
				}
			}
			for _, def := range defs {
				if inertParam(cfg, def.Name) {
					continue
				}
				cur := def.Get(&cfg)
				for _, v := range def.Values {
					if v == cur {
						continue
					}
					changed := cfg
					if err := def.Set(&changed, v); err != nil {
						t.Fatal(err)
					}
					if changed.Validate() != nil {
						continue
					}
					if changed.Fingerprint() == cfg.Fingerprint() {
						t.Errorf("%s #%d: live %s %s -> %s kept the fingerprint", kind, i, def.Name, cur, v)
					}
				}
			}
		}
	}
}

// TestInvalidConfigKeepsFullFingerprint: canonicalization applies only
// to valid configurations, so an invalid one never shares a fingerprint
// with a valid one or with another invalid one that differs anywhere.
func TestInvalidConfigKeepsFullFingerprint(t *testing.T) {
	valid := PublicA53()
	invalid := valid
	invalid.Width = 0
	if invalid.Validate() == nil {
		t.Fatal("zero width should be invalid")
	}
	other := invalid
	other.Mem.L2.MSHRs++
	if invalid.Fingerprint() == other.Fingerprint() {
		t.Error("an inert field was canonicalized on an invalid config")
	}
	otherValid := valid
	otherValid.Mem.L2.MSHRs++
	if valid.Fingerprint() != otherValid.Fingerprint() {
		t.Error("cache MSHRs changed a valid config's fingerprint")
	}
	renamed := invalid
	renamed.Name = "renamed"
	if invalid.Fingerprint() != renamed.Fingerprint() {
		t.Error("Name changed an invalid config's fingerprint")
	}
}
