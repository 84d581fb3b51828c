package core

import (
	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/isa"
	"racesim/internal/trace"
)

// Result is the outcome of running a trace through a timing model.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Branch       branch.Stats
	Mem          cache.HierarchyStats
	ClassCounts  [isa.NumClasses]uint64

	// Stall breakdown (approximate attribution, in cycles).
	StallFrontEnd uint64 // branch redirects + I-cache
	StallData     uint64 // waiting on operands (incl. load misses)
	StallStruct   uint64 // functional-unit and queue contention
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Model runs traces under a timing configuration.
type Model interface {
	// Run replays src from its current position to the end and returns
	// the accumulated timing result, decoding each event as it goes.
	// Callers reset the source. It is the per-event reference oracle;
	// production replay goes through the lane-batched walk (InOrderBatch,
	// OoOBatch), which produces identical Results.
	Run(src trace.Source) (Result, error)
}

// decodeCache memoizes static decode by instruction word — compiled
// straight to the Behavior the step kernel consumes — for the per-event
// oracle path (Model.Run), which re-decodes the same hot words millions of
// times.
type decodeCache struct {
	dec   isa.Decoder
	cache map[uint32]*Behavior
}

func newDecodeCache(depBug bool) *decodeCache {
	return &decodeCache{dec: isa.Decoder{DepBug: depBug}, cache: make(map[uint32]*Behavior, 1024)}
}

// decode returns the behavior for a trace event's instruction word.
func (d *decodeCache) decode(ev trace.Event) (*Behavior, error) {
	b, ok := d.cache[ev.Word]
	if !ok {
		in, err := d.dec.Decode(0, ev.Word)
		if err != nil {
			return nil, err
		}
		nb := behaviorOf(&in)
		b = &nb
		d.cache[ev.Word] = b
	}
	return b, nil
}
