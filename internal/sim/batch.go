package sim

import (
	"fmt"
	"runtime"
	"sync"
	"weak"

	"racesim/internal/core"
	"racesim/internal/trace"
)

// behaviorTables memoizes the compiled behavior table per decoded trace.
// A *trace.Decoded is immutable and itself memoized on its Trace (one
// instance per decoder variant), so its identity is a stable key. The key
// is a weak pointer and a cleanup drops the entry once the decode is
// collected, so the table lives exactly as long as the decode it serves
// instead of pinning every decode (and its columns) for the process.
var behaviorTables sync.Map // weak.Pointer[trace.Decoded] -> []core.Behavior

// Behaviors returns the memoized behavior table for a decoded trace,
// compiling it on first use. The table is immutable and share-safe.
func Behaviors(d *trace.Decoded) []core.Behavior {
	key := weak.Make(d)
	if v, ok := behaviorTables.Load(key); ok {
		return v.([]core.Behavior)
	}
	v, loaded := behaviorTables.LoadOrStore(key, core.CompileBehaviors(d.Insts))
	if !loaded {
		runtime.AddCleanup(d, func(k weak.Pointer[trace.Decoded]) { behaviorTables.Delete(k) }, key)
	}
	return v.([]core.Behavior)
}

// RunBatch replays one decoded trace under every configuration in a
// single walk over the columns, stepping a vector of per-config lanes in
// lockstep, and returns results aligned with configs. Lanes are fully
// independent, so out[i] is exactly what configs[i].RunDecoded(d) returns
// — batching changes throughput, never results. Configs may mix core
// kinds (each kind walks once); every config must share d's decoder
// variant. Traces that declare WarmData disable the zero-fill page
// optimization per lane, as in the sequential path. Lane storage comes
// from pools and goes back to them when the walk is done, so after
// warm-up a replay allocates almost nothing (docs/performance.md, "Lane
// recycling").
func RunBatch(configs []Config, d *trace.Decoded) ([]core.Result, error) {
	if len(configs) == 0 {
		return nil, nil
	}
	behav := Behaviors(d)
	out := make([]core.Result, len(configs))

	var inIdx, oooIdx []int
	var inCfgs []core.InOrderConfig
	var oooCfgs []core.OoOConfig
	for i, c := range configs {
		if d.WarmData {
			c.Mem.ZeroFillOpt = false
		}
		switch c.Kind {
		case InOrder:
			inIdx = append(inIdx, i)
			inCfgs = append(inCfgs, c.inOrder())
		case OutOfOrder:
			oooIdx = append(oooIdx, i)
			oooCfgs = append(oooCfgs, c.ooo())
		default:
			return nil, fmt.Errorf("sim: unknown core kind %q", c.Kind)
		}
	}
	if len(inCfgs) > 0 {
		b, err := core.NewInOrderBatch(inCfgs)
		if err != nil {
			return nil, err
		}
		rs, err := b.RunDecoded(d, behav)
		b.Release()
		if err != nil {
			return nil, err
		}
		for j, i := range inIdx {
			out[i] = rs[j]
		}
	}
	if len(oooCfgs) > 0 {
		b, err := core.NewOoOBatch(oooCfgs)
		if err != nil {
			return nil, err
		}
		rs, err := b.RunDecoded(d, behav)
		b.Release()
		if err != nil {
			return nil, err
		}
		for j, i := range oooIdx {
			out[i] = rs[j]
		}
	}
	return out, nil
}
