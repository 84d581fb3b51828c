package prefetch

import (
	"reflect"
	"slices"
	"testing"
)

func mk(t *testing.T, cfg Config) Prefetcher {
	t.Helper()
	p, err := New(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Kind: "warp", Degree: 1, Distance: 1},
		{Kind: KindStride, Degree: 1, Distance: 1, TableEntries: 100},
		{Kind: KindNextLine, Degree: 0, Distance: 1},
		{Kind: KindNextLine, Degree: 1, Distance: 0},
		{Kind: KindGHB, Degree: 1, Distance: 1, TableEntries: 64, GHBEntries: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted, want error", c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestNone(t *testing.T) {
	p := mk(t, DefaultConfig())
	if got := p.Observe(0x100, 0x4000, true); got != nil {
		t.Errorf("none prefetcher issued %v", got)
	}
}

func TestNextLine(t *testing.T) {
	cfg := Config{Kind: KindNextLine, Degree: 2, Distance: 1}
	p := mk(t, cfg)
	got := p.Observe(0x100, 0x4000, true)
	want := []uint64{0x4040, 0x4080}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("next-line = %#v, want %#v", got, want)
	}
	if got := p.Observe(0x100, 0x4000, false); got != nil {
		t.Errorf("next-line fired on hit without OnHit: %v", got)
	}
	cfg.OnHit = true
	p = mk(t, cfg)
	if got := p.Observe(0x100, 0x4000, false); len(got) != 2 {
		t.Errorf("next-line with OnHit should fire on hits, got %v", got)
	}
}

func TestStrideDetectsConstantStride(t *testing.T) {
	cfg := Config{Kind: KindStride, Degree: 1, Distance: 2, TableEntries: 64}
	p := mk(t, cfg)
	pc := uint64(0x1000)
	var fired []uint64
	// Stream with stride 128 (two lines).
	for i := 0; i < 8; i++ {
		addr := uint64(0x8000 + i*128)
		fired = append(fired, p.Observe(pc, addr, true)...)
	}
	if len(fired) == 0 {
		t.Fatal("stride prefetcher never fired on a constant-stride stream")
	}
	// Targets must be stride*distance ahead.
	last := fired[len(fired)-1]
	if (last-0x8000)%128 != 0 {
		t.Errorf("prefetch target %#x not on the stride lattice", last)
	}
	// Different PC must not be confused.
	if got := p.Observe(0x2000, 0x9000, true); got != nil {
		t.Errorf("fresh PC fired immediately: %v", got)
	}
}

func TestStrideIgnoresRandomStream(t *testing.T) {
	cfg := Config{Kind: KindStride, Degree: 1, Distance: 1, TableEntries: 64}
	p := mk(t, cfg)
	addrs := []uint64{0x1000, 0x9340, 0x2280, 0xF000, 0x3340, 0xB000, 0x60C0}
	n := 0
	for _, a := range addrs {
		n += len(p.Observe(0x500, a, true))
	}
	if n != 0 {
		t.Errorf("stride prefetcher fired %d times on a random stream", n)
	}
}

func TestGHBDeltaCorrelation(t *testing.T) {
	cfg := Config{Kind: KindGHB, Degree: 2, Distance: 1, TableEntries: 64, GHBEntries: 128}
	p := mk(t, cfg)
	var fired []uint64
	for i := 0; i < 10; i++ {
		addr := uint64(0x10000 + i*192) // delta = 3 lines
		fired = append(fired, p.Observe(0x700, addr, true)...)
	}
	if len(fired) == 0 {
		t.Fatal("GHB never fired on a constant-delta stream")
	}
	for _, a := range fired {
		if (a-0x10000)%192 != 0 {
			t.Errorf("GHB target %#x off the delta lattice", a)
		}
	}
}

func TestSpatialStaysInRegion(t *testing.T) {
	cfg := Config{Kind: KindSpatial, Degree: 4, Distance: 1}
	p := mk(t, cfg)
	p.Observe(0, 0x40000, true)
	fired := p.Observe(0, 0x40080, true)
	if len(fired) == 0 {
		t.Fatal("spatial prefetcher did not fire on second regional miss")
	}
	for _, a := range fired {
		if a>>12 != 0x40 {
			t.Errorf("spatial prefetch %#x escaped the 4KB region", a)
		}
	}
}

// TestSpatialEvictionDeterministic drives the spatial prefetcher past its
// 1024-region bound twice and requires identical outputs: eviction must
// not depend on map iteration order. It also pins the policy — the oldest
// region goes first — so revisiting the regions newest-first fires for
// exactly the 1024 newest and for none of the evicted ones.
func TestSpatialEvictionDeterministic(t *testing.T) {
	const regions = 1500
	drive := func() [][]uint64 {
		p := mk(t, Config{Kind: KindSpatial, Degree: 2, Distance: 1})
		var out [][]uint64
		// Observe's result is valid only until the next call: keep copies.
		for r := uint64(1); r <= regions; r++ {
			out = append(out, slices.Clone(p.Observe(0, r<<12, true)))
		}
		for r := uint64(regions); r >= 1; r-- {
			out = append(out, slices.Clone(p.Observe(0, r<<12+0x80, true)))
		}
		return out
	}
	a, b := drive(), drive()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("spatial prefetcher output differs between identical runs")
	}
	for i, fired := range a[regions:] {
		r := regions - i
		if live := r > regions-1024; live != (len(fired) > 0) {
			t.Errorf("region %d revisit fired=%v, want %v", r, len(fired) > 0, live)
		}
	}
}

func TestSpatialExcludedFromTunerKinds(t *testing.T) {
	for _, k := range Kinds {
		if k == KindSpatial {
			t.Error("spatial prefetcher must not be offered to the tuner")
		}
	}
}

func TestPrefetcherNeverReturnsZeroAddress(t *testing.T) {
	cfgs := []Config{
		{Kind: KindStride, Degree: 4, Distance: 8, TableEntries: 16},
		{Kind: KindGHB, Degree: 4, Distance: 8, TableEntries: 16, GHBEntries: 32},
	}
	for _, cfg := range cfgs {
		p := mk(t, cfg)
		// Descending stream near zero: candidate targets would underflow.
		for i := 10; i >= 0; i-- {
			for _, a := range p.Observe(0x100, uint64(i*64), true) {
				if a == 0 || int64(a) < 0 {
					t.Errorf("%s produced non-positive address %#x", cfg.Kind, a)
				}
			}
		}
	}
}

// observeStream drives p with a deterministic mix of strided, repeating
// and scattered accesses over several PCs and returns a copy of every
// result.
func observeStream(p Prefetcher) [][]uint64 {
	var out [][]uint64
	rng := uint64(12345)
	for i := 0; i < 6000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pc := 0x400 + (rng%5)*4
		addr := uint64(i%7)*0x1040 + uint64(i/7)*64*(pc%3+1)
		if i%11 == 0 {
			addr = (rng % (1 << 24)) &^ 63 // scattered: new regions, new deltas
		}
		out = append(out, slices.Clone(p.Observe(pc, addr, rng&3 != 0)))
	}
	return out
}

// TestBankResetMatchesNew reuses one Bank across every kind and several
// table sizes, in an order that shrinks and regrows each table, and
// requires each reset prefetcher to observe exactly like a fresh one. It
// also checks that Observe does not allocate.
func TestBankResetMatchesNew(t *testing.T) {
	var cfgs []Config
	for _, entries := range []int{64, 16, 256} {
		for _, kind := range []Kind{KindNextLine, KindStride, KindGHB, KindSpatial, KindNone} {
			cfgs = append(cfgs, Config{Kind: kind, Degree: entries / 16, Distance: 2, TableEntries: entries, GHBEntries: entries / 2, OnHit: entries == 16})
		}
	}
	var b Bank
	for _, cfg := range cfgs {
		p, err := b.Reset(cfg, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := observeStream(p), observeStream(mk(t, cfg)); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: reset bank prefetcher differs from a new one", cfg)
		}
		if allocs := testing.AllocsPerRun(100, func() { p.Observe(0x400, 0x8000, true) }); allocs != 0 {
			t.Errorf("%s: Observe allocates %v times per call", cfg.Kind, allocs)
		}
	}
}
