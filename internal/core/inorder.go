package core

import (
	"fmt"
	"math/bits"

	"racesim/internal/isa"
	"racesim/internal/trace"
)

// inOrderStatic is the config-derived state of the in-order model that is
// never written during replay: issue rules, penalties and the by-class
// latency table. One value serves any number of replays of its config;
// lanes of a batch each carry their own (configs differ per lane) while
// sharing the decoded columns and behavior table.
type inOrderStatic struct {
	width       int
	dualIssueLS bool
	maxMem      int
	maxBr       int

	fetchLineBits uint
	fetchBase     uint64 // L1I hit latency incl. tag/data serialization
	mispredictPen uint64
	btbMissPen    uint64

	lat    [isa.NumClasses]uint64
	depBug bool
}

func newInOrderStatic(cfg InOrderConfig) inOrderStatic {
	base := uint64(cfg.Mem.L1I.HitLatency)
	if cfg.Mem.L1I.TagDataSerial {
		base++
	}
	return inOrderStatic{
		width:         cfg.Width,
		dualIssueLS:   cfg.DualIssueLoadStore,
		maxMem:        cfg.MaxMemPerCycle,
		maxBr:         cfg.MaxBranchPerCycle,
		fetchLineBits: uint(bits.TrailingZeros(uint(cfg.Mem.L1I.LineSize))),
		fetchBase:     base,
		mispredictPen: uint64(cfg.FrontEnd.MispredictPenalty),
		btbMissPen:    uint64(cfg.FrontEnd.BTBMissPenalty),
		lat:           latencyTable(cfg.Lat),
		depBug:        cfg.DecoderDepBug,
	}
}

// inOrderLane is the per-config mutable state of one in-order replay: the
// scoreboard, pipeline occupancy, cache hierarchy, branch unit and queue
// rings. A batch holds a dense slice of lanes and steps them in lockstep.
type inOrderLane struct {
	laneParts
	cont contention

	regReady [isa.NumRegs]uint64
	cycle    uint64
	issued   int
	memOps   int
	branches int

	fetchAvail    uint64
	lastFetchLine uint64

	mshr   seqRing // outstanding data-cache misses
	sb     seqRing // store buffer occupancy
	sbLast uint64  // last drain end (drains are serialized)

	endCycle uint64
	res      Result
}

// newInOrderLane builds a lane for cfg over recycled storage when recycle
// is set (see laneParts).
func newInOrderLane(cfg InOrderConfig, recycle bool) (inOrderLane, error) {
	p, err := newLaneParts(cfg.Mem, cfg.Branch, cfg.MSHRs+cfg.StoreBufferEntries+cfg.Pipes.total(), recycle)
	if err != nil {
		return inOrderLane{}, err
	}
	w := carver(p.words.w)
	return inOrderLane{
		laneParts:     p,
		cont:          newContention(cfg.Pipes, cfg.Lat, &w),
		mshr:          seqRing{done: w.take(cfg.MSHRs)},
		sb:            seqRing{done: w.take(cfg.StoreBufferEntries)},
		lastFetchLine: ^uint64(0),
	}, nil
}

// InOrder is the in-order core timing model (Cortex-A53 class): dual-issue
// with pairing rules, a register scoreboard, blocking-limited hit-under-miss
// data accesses, a draining store buffer, and a front-end redirected by the
// branch unit.
type InOrder struct {
	st   inOrderStatic
	lane inOrderLane
	dc   *decodeCache
}

// seqRing models a capacity-limited structure whose entries free at known
// times: entry n cannot be allocated before entry n-cap has freed. idx is
// the next slot and wraps explicitly (capacities are rarely powers of two,
// so a modulo here would cost a divide per allocation).
type seqRing struct {
	done []uint64
	idx  int
	full bool // count of allocations has reached capacity
}

// wait returns how long an allocation at cycle t must stall for a slot.
func (r *seqRing) wait(t uint64) uint64 {
	if !r.full {
		return 0
	}
	if prev := r.done[r.idx]; prev > t {
		return prev - t
	}
	return 0
}

// note records that the next allocated entry frees at done.
func (r *seqRing) note(done uint64) {
	r.done[r.idx] = done
	r.idx++
	if r.idx == len(r.done) {
		r.idx = 0
		r.full = true
	}
}

// NewInOrder builds the model; cfg must be valid.
func NewInOrder(cfg InOrderConfig) (*InOrder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lane, err := newInOrderLane(cfg, false)
	if err != nil {
		return nil, err
	}
	return &InOrder{
		st:   newInOrderStatic(cfg),
		lane: lane,
		dc:   newDecodeCache(cfg.DecoderDepBug),
	}, nil
}

func (ln *inOrderLane) advanceCycle(to uint64) {
	if to > ln.cycle {
		ln.cycle = to
		ln.issued = 0
		ln.memOps = 0
		ln.branches = 0
	}
}

// slotFor finds the earliest cycle >= t with a free issue slot compatible
// with the instruction's class, honouring width and pairing rules, and
// consumes the slot.
func (ln *inOrderLane) slotFor(st *inOrderStatic, b *Behavior, t uint64) uint64 {
	isMem := b.kind == stepLoad || b.kind == stepStore
	isBr := b.kind == stepBranch
	for {
		ln.advanceCycle(t)
		switch {
		case ln.issued >= st.width:
			t = ln.cycle + 1
			continue
		case isMem && ln.memOps >= st.maxMem:
			t = ln.cycle + 1
			continue
		case isMem && !st.dualIssueLS && ln.issued > 0:
			t = ln.cycle + 1
			continue
		case isBr && ln.branches >= st.maxBr:
			t = ln.cycle + 1
			continue
		}
		// Structural hazard on the functional unit: find the pipe that
		// frees earliest and, if it is already free, book it in place
		// (a separate reserve would rescan the same pipe group).
		if pipes := ln.cont.pipes[b.Cls]; len(pipes) != 0 {
			bp := bestPipe(pipes)
			if free := pipes[bp]; free > ln.cycle {
				ln.cont.stalls += free - ln.cycle
				t = free
				continue
			}
			pipes[bp] = ln.cycle + ln.cont.ii[b.Cls]
		}
		break
	}
	ln.issued++
	if isMem {
		ln.memOps++
		if !st.dualIssueLS {
			ln.issued = st.width // memory op closes the issue group
		}
	}
	if isBr {
		ln.branches++
	}
	return ln.cycle
}

func (ln *inOrderLane) retire(at uint64) {
	if at > ln.endCycle {
		ln.endCycle = at
	}
}

// Run implements Model.
func (m *InOrder) Run(src trace.Source) (Result, error) {
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		b, err := m.dc.decode(ev)
		if err != nil {
			return Result{}, fmt.Errorf("core: %w", err)
		}
		m.lane.res.Instructions++
		m.lane.res.ClassCounts[b.Cls]++
		m.lane.stepLane(&m.st, b, ev.PC, ev.MemAddr, ev.Target, ev.Taken)
	}
	return m.lane.finish(), nil
}

func (ln *inOrderLane) finish() Result {
	ln.res.Cycles = ln.endCycle
	if ln.res.Cycles == 0 && ln.res.Instructions > 0 {
		ln.res.Cycles = ln.res.Instructions
	}
	ln.res.Branch = ln.bu.Stats()
	ln.res.Mem = ln.hier.Stats()
	ln.res.StallStruct += ln.cont.stalls
	return ln.res
}

// stepLane advances one lane by one dynamic instruction: st and b are the
// lane's config-derived static state and the instruction's shared behavior
// (both never mutated), the remaining arguments are the event's dynamic
// fields. It is the single step kernel: the per-event oracle and the
// batched walk both funnel through it, so their results are identical by
// construction. Instruction and class counts are NOT updated here — they
// are lane-invariant over a trace, so callers add them in bulk (see
// addCounts) instead of paying two read-modify-writes per step.
func (ln *inOrderLane) stepLane(st *inOrderStatic, b *Behavior, pc, memAddr, target uint64, taken bool) {
	earliest := ln.fetchAvail
	if ln.cycle > earliest {
		earliest = ln.cycle
	}

	// Instruction fetch: access the I-cache on each new line.
	line := pc >> st.fetchLineBits
	if line != ln.lastFetchLine {
		fres := ln.hier.Fetch(earliest, pc)
		if fres.Latency > st.fetchBase {
			stall := fres.Latency - st.fetchBase
			ln.res.StallFrontEnd += stall
			earliest += stall
			ln.fetchAvail = earliest
		}
		ln.lastFetchLine = line
	}

	// Operand readiness (scoreboard).
	ready := earliest
	for i := uint8(0); i < b.nSrc; i++ {
		if r := ln.regReady[b.src[i]]; r > ready {
			ready = r
		}
	}
	if ready > earliest {
		ln.res.StallData += ready - earliest
	}

	issueAt := ln.slotFor(st, b, ready)

	switch b.kind {
	case stepLoad:
		if !ln.hier.L1D().Probe(memAddr) {
			// A miss needs an MSHR; a full file stalls the pipeline
			// (hit-under-miss is allowed, miss-under-full is not).
			if d := ln.mshr.wait(issueAt); d > 0 {
				ln.res.StallStruct += d
				issueAt += d
				ln.advanceCycle(issueAt)
			}
		}
		res := ln.hier.Load(issueAt, pc, memAddr)
		done := issueAt + res.Latency
		if res.Level > 1 {
			ln.mshr.note(done)
		}
		for i := uint8(0); i < b.nDst; i++ {
			ln.regReady[b.dst[i]] = done
		}
		ln.retire(done)

	case stepStore:
		// A full store buffer stalls the pipeline until a slot drains.
		if d := ln.sb.wait(issueAt); d > 0 {
			ln.res.StallStruct += d
			issueAt += d
			ln.advanceCycle(issueAt)
		}
		start := issueAt
		if ln.sbLast > start {
			start = ln.sbLast
		}
		res := ln.hier.Store(start, pc, memAddr)
		drain := start + res.Latency
		ln.sbLast = drain
		ln.sb.note(drain)
		// The store retires quickly; the drain happens in the background.
		ln.retire(issueAt + 1)

	case stepBranch:
		resolve := issueAt + st.lat[b.Cls]
		out := ln.bu.AccessOutcome(b.Cls, b.Op, pc, target, taken)
		if out.Mispredict {
			ln.fetchAvail = resolve + st.mispredictPen
			ln.res.StallFrontEnd += st.mispredictPen
		} else if out.TargetMiss {
			if ln.fetchAvail < issueAt+st.btbMissPen {
				ln.fetchAvail = issueAt + st.btbMissPen
			}
			ln.res.StallFrontEnd += st.btbMissPen
		}
		for i := uint8(0); i < b.nDst; i++ { // BL writes the link register
			ln.regReady[b.dst[i]] = resolve
		}
		ln.retire(resolve)

	default:
		done := issueAt + st.lat[b.Cls]
		for i := uint8(0); i < b.nDst; i++ {
			ln.regReady[b.dst[i]] = done
		}
		ln.retire(done)
	}
}
