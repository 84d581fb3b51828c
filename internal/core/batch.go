// Lane-batched replay, the one decoded replay kernel: one walk over a
// decoded trace's columns steps a vector of per-config lanes (production
// replay is the one-lane case). Lanes are fully independent — nothing in a
// lane reads another lane — so each lane's Result is identical to a
// one-lane walk of its config, and to the per-event Model.Run oracle, by
// construction (all drive the same stepLane kernel with the same per-lane
// argument sequence).
//
// The walk is chunked lane-major: events are consumed in fixed-size column
// chunks, and within a chunk each lane replays all of the chunk's events
// before the next lane starts. Per-lane event order — the only order that
// matters, since lanes never interact — is preserved exactly. The chunk
// keeps the column slab (IDs, PCs, addresses, targets, taken bits) hot in
// the host cache across all lane passes, while each lane pass keeps that
// lane's model state (cache arrays, predictor tables) hot across thousands
// of consecutive steps instead of being evicted by the other lanes' state
// after every event, as a strict per-event lockstep walk would.
package core

import (
	"fmt"

	"racesim/internal/trace"
)

// batchChunk is the number of events a lane replays before the walk moves
// to the next lane. At ~29 bytes of column data per event a chunk is a
// ~120 KiB slab — comfortably L2-resident on anything this runs on — while
// being long enough that a lane's working set dominates its pass.
const batchChunk = 4096

// InOrderBatch replays one decoded trace through N in-order lanes in
// lockstep. Lane state is a dense slice (struct-of-lanes) so the walk
// touches contiguous memory when stepping the vector.
type InOrderBatch struct {
	st    []inOrderStatic
	lanes []inOrderLane
}

// NewInOrderBatch builds one lane per config over recycled lane storage;
// every config must be valid. Release returns the storage.
func NewInOrderBatch(cfgs []InOrderConfig) (*InOrderBatch, error) {
	b := &InOrderBatch{
		st:    make([]inOrderStatic, len(cfgs)),
		lanes: make([]inOrderLane, len(cfgs)),
	}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		lane, err := newInOrderLane(cfg, true)
		if err != nil {
			return nil, err
		}
		b.st[i] = newInOrderStatic(cfg)
		b.lanes[i] = lane
	}
	return b, nil
}

// RunDecoded walks d's columns once, stepping every lane per event, and
// returns one Result per lane (in constructor config order). behav must be
// the behavior table for d.Insts (nil: compiled here). Every lane's config
// must share d's decoder variant — a batch cannot mix DepBug settings with
// its trace.
func (b *InOrderBatch) RunDecoded(d *trace.Decoded, behav []Behavior) ([]Result, error) {
	for i := range b.st {
		if d.DepBug != b.st[i].depBug {
			return nil, fmt.Errorf("core: decoded trace uses DepBug=%v, lane %d configured with %v", d.DepBug, i, b.st[i].depBug)
		}
	}
	if behav == nil {
		behav = CompileBehaviors(d.Insts)
	}
	st, lanes := b.st, b.lanes
	ids, pcs, mems, tgts := d.IDs, d.PC, d.MemAddr, d.Target
	for s := 0; s < len(ids); s += batchChunk {
		e := min(s+batchChunk, len(ids))
		idsC, pcsC := ids[s:e], pcs[s:e]
		memsC, tgtsC := mems[s:e], tgts[s:e]
		// batchChunk is a multiple of 64, so chunk starts are word-aligned
		// in the taken bitset and each lane pass can shift through whole
		// words instead of re-extracting a bit per event.
		tkC := d.TakenBits[s>>6:]
		for l := range lanes {
			ln, stl := &lanes[l], &st[l]
			var tkWord uint64
			for i := range idsC {
				if i&63 == 0 {
					tkWord = tkC[i>>6]
				}
				ln.stepLane(stl, &behav[idsC[i]], pcsC[i], memsC[i], tgtsC[i], tkWord&1 != 0)
				tkWord >>= 1
			}
		}
	}
	if d.Err != nil {
		return nil, fmt.Errorf("core: %w", d.Err)
	}
	cc := classHistogram(ids, behav)
	out := make([]Result, len(lanes))
	for l := range lanes {
		addCounts(&lanes[l].res, uint64(len(ids)), &cc)
		out[l] = lanes[l].finish()
	}
	return out, nil
}

// OoOBatch replays one decoded trace through N out-of-order lanes; see
// InOrderBatch.
type OoOBatch struct {
	st    []oooStatic
	lanes []oooLane
}

// NewOoOBatch builds one lane per config over recycled lane storage;
// every config must be valid. Release returns the storage.
func NewOoOBatch(cfgs []OoOConfig) (*OoOBatch, error) {
	b := &OoOBatch{
		st:    make([]oooStatic, len(cfgs)),
		lanes: make([]oooLane, len(cfgs)),
	}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		lane, err := newOoOLane(cfg, true)
		if err != nil {
			return nil, err
		}
		b.st[i] = newOoOStatic(cfg)
		b.lanes[i] = lane
	}
	return b, nil
}

// Release returns every lane's storage for reuse by later batches. The
// Results RunDecoded returned stay valid; b must not be used afterwards.
func (b *InOrderBatch) Release() {
	for l := range b.lanes {
		b.lanes[l].release()
	}
}

// Release returns every lane's storage; see InOrderBatch.Release.
func (b *OoOBatch) Release() {
	for l := range b.lanes {
		b.lanes[l].release()
	}
}

// RunDecoded walks d's columns once, stepping every lane per event; see
// InOrderBatch.RunDecoded.
func (b *OoOBatch) RunDecoded(d *trace.Decoded, behav []Behavior) ([]Result, error) {
	for i := range b.st {
		if d.DepBug != b.st[i].depBug {
			return nil, fmt.Errorf("core: decoded trace uses DepBug=%v, lane %d configured with %v", d.DepBug, i, b.st[i].depBug)
		}
	}
	if behav == nil {
		behav = CompileBehaviors(d.Insts)
	}
	st, lanes := b.st, b.lanes
	ids, pcs, mems, tgts := d.IDs, d.PC, d.MemAddr, d.Target
	for s := 0; s < len(ids); s += batchChunk {
		e := min(s+batchChunk, len(ids))
		idsC, pcsC := ids[s:e], pcs[s:e]
		memsC, tgtsC := mems[s:e], tgts[s:e]
		// batchChunk is a multiple of 64, so chunk starts are word-aligned
		// in the taken bitset and each lane pass can shift through whole
		// words instead of re-extracting a bit per event.
		tkC := d.TakenBits[s>>6:]
		for l := range lanes {
			ln, stl := &lanes[l], &st[l]
			var tkWord uint64
			for i := range idsC {
				if i&63 == 0 {
					tkWord = tkC[i>>6]
				}
				ln.stepLane(stl, &behav[idsC[i]], pcsC[i], memsC[i], tgtsC[i], tkWord&1 != 0)
				tkWord >>= 1
			}
		}
	}
	if d.Err != nil {
		return nil, fmt.Errorf("core: %w", d.Err)
	}
	cc := classHistogram(ids, behav)
	out := make([]Result, len(lanes))
	for l := range lanes {
		addCounts(&lanes[l].res, uint64(len(ids)), &cc)
		out[l] = lanes[l].finish()
	}
	return out, nil
}
