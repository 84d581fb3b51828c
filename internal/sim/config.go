// Package sim is the simulator façade: a single flat configuration that
// covers both core types (in-order Cortex-A53 class and out-of-order
// Cortex-A72 class), JSON (de)serialization for config files, best-guess
// public presets corresponding to steps 1–3 of the paper's methodology, and
// the space of undisclosed parameters handed to the tuner (step 4).
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/core"
	"racesim/internal/prefetch"
	"racesim/internal/trace"
)

// CoreKind selects the back-end timing model.
type CoreKind string

// Core kinds.
const (
	InOrder    CoreKind = "inorder"
	OutOfOrder CoreKind = "ooo"
)

// Config fully describes a simulated core and its memory subsystem.
type Config struct {
	Name string   `json:"name"`
	Kind CoreKind `json:"kind"`

	// In-order parameters.
	Width              int  `json:"width"`
	DualIssueLoadStore bool `json:"dual_issue_load_store"`
	MaxMemPerCycle     int  `json:"max_mem_per_cycle"`
	MaxBranchPerCycle  int  `json:"max_branch_per_cycle"`
	StoreBufferEntries int  `json:"store_buffer_entries"`

	// Out-of-order parameters.
	DispatchWidth int `json:"dispatch_width"`
	RetireWidth   int `json:"retire_width"`
	ROBEntries    int `json:"rob_entries"`
	IQEntries     int `json:"iq_entries"`
	LQEntries     int `json:"lq_entries"`
	SQEntries     int `json:"sq_entries"`

	// Shared.
	MSHRs    int                   `json:"mshrs"`
	Lat      core.LatencyConfig    `json:"latencies"`
	Pipes    core.PipesConfig      `json:"pipes"`
	FrontEnd core.FrontEndConfig   `json:"front_end"`
	Branch   branch.Config         `json:"branch"`
	Mem      cache.HierarchyConfig `json:"mem"`

	// DecoderDepBug reproduces the decoder-library dependency bug.
	DecoderDepBug bool `json:"decoder_dep_bug"`
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Kind {
	case InOrder:
		return c.inOrder().Validate()
	case OutOfOrder:
		return c.ooo().Validate()
	default:
		return fmt.Errorf("sim: unknown core kind %q", c.Kind)
	}
}

func (c Config) inOrder() core.InOrderConfig {
	return core.InOrderConfig{
		Width:              c.Width,
		DualIssueLoadStore: c.DualIssueLoadStore,
		MaxMemPerCycle:     c.MaxMemPerCycle,
		MaxBranchPerCycle:  c.MaxBranchPerCycle,
		MSHRs:              c.MSHRs,
		StoreBufferEntries: c.StoreBufferEntries,
		Lat:                c.Lat,
		Pipes:              c.Pipes,
		FrontEnd:           c.FrontEnd,
		Branch:             c.Branch,
		Mem:                c.Mem,
		DecoderDepBug:      c.DecoderDepBug,
	}
}

func (c Config) ooo() core.OoOConfig {
	return core.OoOConfig{
		DispatchWidth: c.DispatchWidth,
		RetireWidth:   c.RetireWidth,
		ROBEntries:    c.ROBEntries,
		IQEntries:     c.IQEntries,
		LQEntries:     c.LQEntries,
		SQEntries:     c.SQEntries,
		MSHRs:         c.MSHRs,
		Lat:           c.Lat,
		Pipes:         c.Pipes,
		FrontEnd:      c.FrontEnd,
		Branch:        c.Branch,
		Mem:           c.Mem,
		DecoderDepBug: c.DecoderDepBug,
	}
}

// Model builds a fresh timing model from the configuration.
func (c Config) Model() (core.Model, error) {
	switch c.Kind {
	case InOrder:
		return core.NewInOrder(c.inOrder())
	case OutOfOrder:
		return core.NewOoO(c.ooo())
	default:
		return nil, fmt.Errorf("sim: unknown core kind %q", c.Kind)
	}
}

// Run replays a trace on a fresh model instance through the decode-once
// path: the trace's static decode is computed at most once per decoder
// variant (memoized on tr, see trace.Decoded) and shared immutably by
// every configuration — tuner candidates, validation stages, perturbation
// sweeps — that replays the same trace. Traces that declare WarmData (the
// program initialized its memory before the region, as SPEC workloads do)
// disable the zero-fill page optimization for the run: that hardware
// behaviour only exists for never-written pages.
func (c Config) Run(tr *trace.Trace) (core.Result, error) {
	return c.RunDecoded(tr.Decoded(c.DecoderDepBug))
}

// RunDecoded replays a pre-decoded trace on a fresh model instance. The
// decoded variant must match the configuration's DecoderDepBug setting
// (Run picks the right one automatically). It is a single-lane RunBatch:
// every simulation goes through the one replay kernel (the per-lane step
// walk) and one memoized behavior table per decode.
func (c Config) RunDecoded(d *trace.Decoded) (core.Result, error) {
	rs, err := RunBatch([]Config{c}, d)
	if err != nil {
		return core.Result{}, err
	}
	return rs[0], nil
}

// Fingerprint returns a stable hex digest of the configuration's canonical
// JSON form (see canonical). Two configurations that simulate identically
// because they differ only in Name or in fields the model never reads
// share a fingerprint; it is the config half of the simulation-cache key
// (see internal/simcache).
func (c Config) Fingerprint() string {
	data, err := json.Marshal(c.canonical())
	if err != nil {
		// Config is a tree of plain value fields; Marshal cannot fail on
		// it. Guard anyway so a future field type cannot poison the cache
		// with colliding keys.
		panic(fmt.Sprintf("sim: fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// canonical returns c without its cosmetic Name and, when c is valid,
// with every field the timing model never reads zeroed:
//
//   - cache.Config.MSHRs at every level (the cores bound outstanding
//     misses with Config.MSHRs);
//   - prefetcher fields the configured Kind does not use;
//   - branch-predictor tables the direction Kind does not build;
//   - the indirect predictor's geometry while it is disabled.
//
// An invalid configuration keeps every field, so it never shares a
// fingerprint (or an in-flight simulation slot) with a valid one.
func (c Config) canonical() Config {
	c.Name = "" // cosmetic only: tuned copies must hit the same entry
	if c.Validate() != nil {
		return c
	}
	for _, l := range []*cache.Config{&c.Mem.L1I, &c.Mem.L1D, &c.Mem.L2} {
		l.MSHRs = 0
		l.Prefetch = canonicalPrefetch(l.Prefetch)
	}
	c.Branch = canonicalBranch(c.Branch)
	return c
}

// canonicalPrefetch zeroes the fields p's Kind never reads.
func canonicalPrefetch(p prefetch.Config) prefetch.Config {
	switch p.Kind {
	case prefetch.KindNone:
		return prefetch.Config{Kind: prefetch.KindNone}
	case prefetch.KindNextLine:
		p.TableEntries, p.GHBEntries = 0, 0
	case prefetch.KindStride:
		p.GHBEntries = 0
	}
	return p
}

// canonicalBranch zeroes the predictor tables b's Kind does not build
// and the indirect geometry when indirect prediction is off.
func canonicalBranch(b branch.Config) branch.Config {
	switch b.Kind {
	case branch.KindStatic:
		b.BimodalEntries, b.GShareEntries, b.HistoryBits, b.ChooserEntries = 0, 0, 0, 0
	case branch.KindBimodal:
		b.GShareEntries, b.HistoryBits, b.ChooserEntries = 0, 0, 0
	case branch.KindGShare:
		b.BimodalEntries, b.ChooserEntries = 0, 0
	}
	if !b.IndirectEnabled {
		b.IndirectEntries, b.IndirectHistory = 0, 0
	}
	return b
}

// MarshalJSONFile writes the configuration to path as indented JSON.
func (c Config) MarshalJSONFile(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadConfig reads a configuration from a JSON file and validates it.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("sim: %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, fmt.Errorf("sim: %s: %w", path, err)
	}
	return c, nil
}
