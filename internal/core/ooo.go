package core

import (
	"fmt"
	"math/bits"

	"racesim/internal/isa"
	"racesim/internal/trace"
)

// oooStatic is the config-derived state of the out-of-order model that is
// never written during replay; see inOrderStatic.
type oooStatic struct {
	dispatchWidth int
	retireWidth   int

	fetchLineBits uint
	fetchBase     uint64
	mispredictPen uint64
	btbMissPen    uint64

	lat    [isa.NumClasses]uint64
	depBug bool
}

func newOoOStatic(cfg OoOConfig) oooStatic {
	base := uint64(cfg.Mem.L1I.HitLatency)
	if cfg.Mem.L1I.TagDataSerial {
		base++
	}
	return oooStatic{
		dispatchWidth: cfg.DispatchWidth,
		retireWidth:   cfg.RetireWidth,
		fetchLineBits: uint(bits.TrailingZeros(uint(cfg.Mem.L1I.LineSize))),
		fetchBase:     base,
		mispredictPen: uint64(cfg.FrontEnd.MispredictPenalty),
		btbMissPen:    uint64(cfg.FrontEnd.BTBMissPenalty),
		lat:           latencyTable(cfg.Lat),
		depBug:        cfg.DecoderDepBug,
	}
}

// oooLane is the per-config mutable state of one out-of-order replay.
type oooLane struct {
	laneParts
	cont contention

	regReady [isa.NumRegs]uint64

	dispatchCycle uint64
	dispatched    int

	fetchAvail    uint64
	lastFetchLine uint64

	rob    []uint64 // retire cycle by sequence number mod ROBEntries
	iq     []uint64 // issue cycle by sequence number mod IQEntries
	lq     []uint64
	sq     []uint64
	seq    uint64 // instruction sequence number
	loads  uint64
	stores uint64

	lastRetire   uint64
	retiredInCyc int

	mshr   seqRing
	sbLast uint64

	endCycle uint64
	res      Result
}

// newOoOLane builds a lane for cfg over recycled storage when recycle is
// set (see laneParts).
func newOoOLane(cfg OoOConfig, recycle bool) (oooLane, error) {
	words := cfg.ROBEntries + cfg.IQEntries + cfg.LQEntries + cfg.SQEntries + cfg.MSHRs + cfg.Pipes.total()
	p, err := newLaneParts(cfg.Mem, cfg.Branch, words, recycle)
	if err != nil {
		return oooLane{}, err
	}
	w := carver(p.words.w)
	return oooLane{
		laneParts:     p,
		cont:          newContention(cfg.Pipes, cfg.Lat, &w),
		rob:           w.take(cfg.ROBEntries),
		iq:            w.take(cfg.IQEntries),
		lq:            w.take(cfg.LQEntries),
		sq:            w.take(cfg.SQEntries),
		mshr:          seqRing{done: w.take(cfg.MSHRs)},
		lastFetchLine: ^uint64(0),
	}, nil
}

// OoO is the out-of-order core timing model (Cortex-A72 class): wide
// dispatch into a reorder buffer, dataflow-limited issue over the pipe
// contention model, bounded issue queue, load/store queues, MSHR-limited
// memory-level parallelism, and in-order retirement. It is a one-pass
// window model in the spirit of Sniper's instruction-window-centric core.
type OoO struct {
	st   oooStatic
	lane oooLane
	dc   *decodeCache
}

// NewOoO builds the model; cfg must be valid.
func NewOoO(cfg OoOConfig) (*OoO, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lane, err := newOoOLane(cfg, false)
	if err != nil {
		return nil, err
	}
	return &OoO{
		st:   newOoOStatic(cfg),
		lane: lane,
		dc:   newDecodeCache(cfg.DecoderDepBug),
	}, nil
}

// Run implements Model.
func (m *OoO) Run(src trace.Source) (Result, error) {
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

func (ln *oooLane) finish() Result {
	ln.res.Cycles = ln.endCycle
	if ln.res.Cycles == 0 && ln.res.Instructions > 0 {
		ln.res.Cycles = ln.res.Instructions
	}
	ln.res.Branch = ln.bu.Stats()
	ln.res.Mem = ln.hier.Stats()
	ln.res.StallStruct += ln.cont.stalls
	return ln.res
}

// retireSlot assigns an in-order retirement cycle with RetireWidth slots
// per cycle.
func (ln *oooLane) retireSlot(st *oooStatic, complete uint64) uint64 {
	t := complete + 1
	if t < ln.lastRetire {
		t = ln.lastRetire
	}
	if t == ln.lastRetire && ln.retiredInCyc >= st.retireWidth {
		t++
	}
	if t > ln.lastRetire {
		ln.lastRetire = t
		ln.retiredInCyc = 0
	}
	ln.retiredInCyc++
	if t > ln.endCycle {
		ln.endCycle = t
	}
	return t
}

// stepLane advances one lane by one dynamic instruction; see the in-order
// stepLane for the kernel contract.
func (ln *oooLane) stepLane(st *oooStatic, b *Behavior, pc, memAddr, target uint64, taken bool) {
	seq := ln.seq
	ln.seq++

	// Window constraints: the ROB slot of (seq - ROBEntries) must have
	// retired; the IQ slot of (seq - IQEntries) must have issued.
	earliest := ln.fetchAvail
	if r := ln.rob[seq%uint64(len(ln.rob))]; seq >= uint64(len(ln.rob)) && r > earliest {
		ln.res.StallStruct += r - earliest
		earliest = r
	}
	if q := ln.iq[seq%uint64(len(ln.iq))]; seq >= uint64(len(ln.iq)) && q > earliest {
		ln.res.StallStruct += q - earliest
		earliest = q
	}
	if b.kind == stepLoad {
		if l := ln.lq[ln.loads%uint64(len(ln.lq))]; ln.loads >= uint64(len(ln.lq)) && l > earliest {
			earliest = l
		}
	}
	if b.kind == stepStore {
		if s := ln.sq[ln.stores%uint64(len(ln.sq))]; ln.stores >= uint64(len(ln.sq)) && s > earliest {
			earliest = s
		}
	}

	// Instruction fetch.
	line := pc >> st.fetchLineBits
	if line != ln.lastFetchLine {
		fres := ln.hier.Fetch(earliest, pc)
		if fres.Latency > st.fetchBase {
			stall := fres.Latency - st.fetchBase
			ln.res.StallFrontEnd += stall
			earliest += stall
			if earliest > ln.fetchAvail {
				ln.fetchAvail = earliest
			}
		}
		ln.lastFetchLine = line
	}

	// Dispatch slot.
	if earliest > ln.dispatchCycle {
		ln.dispatchCycle = earliest
		ln.dispatched = 0
	}
	if ln.dispatched >= st.dispatchWidth {
		ln.dispatchCycle++
		ln.dispatched = 0
	}
	dispatchAt := ln.dispatchCycle
	ln.dispatched++

	// Dataflow: operands.
	ready := dispatchAt + 1 // one cycle from rename to earliest issue
	for i := uint8(0); i < b.nSrc; i++ {
		if r := ln.regReady[b.src[i]]; r > ready {
			ready = r
		}
	}
	if ready > dispatchAt+1 {
		ln.res.StallData += ready - dispatchAt - 1
	}

	issueAt := ln.cont.issue(b.Cls, ready)
	ln.iq[seq%uint64(len(ln.iq))] = issueAt

	var complete uint64
	switch b.kind {
	case stepLoad:
		if !ln.hier.L1D().Probe(memAddr) {
			// Misses need an MSHR: issue waits for a free one, which
			// bounds memory-level parallelism.
			if d := ln.mshr.wait(issueAt); d > 0 {
				ln.res.StallStruct += d
				issueAt += d
			}
		}
		res := ln.hier.Load(issueAt, pc, memAddr)
		complete = issueAt + res.Latency
		if res.Level > 1 {
			ln.mshr.note(complete)
		}
		ln.lq[ln.loads%uint64(len(ln.lq))] = complete
		ln.loads++

	case stepStore:
		// Stores commit at retirement; the drain is background but
		// serialized, and the SQ entry is held until drain completes.
		start := issueAt
		if ln.sbLast > start {
			start = ln.sbLast
		}
		res := ln.hier.Store(start, pc, memAddr)
		drain := start + res.Latency
		ln.sbLast = drain
		if res.Level > 1 {
			ln.mshr.note(drain)
		}
		ln.sq[ln.stores%uint64(len(ln.sq))] = drain
		ln.stores++
		complete = issueAt + 1

	case stepBranch:
		complete = issueAt + st.lat[b.Cls]
		out := ln.bu.AccessOutcome(b.Cls, b.Op, pc, target, taken)
		if out.Mispredict {
			if complete+st.mispredictPen > ln.fetchAvail {
				ln.fetchAvail = complete + st.mispredictPen
			}
			ln.res.StallFrontEnd += st.mispredictPen
		} else if out.TargetMiss {
			if dispatchAt+st.btbMissPen > ln.fetchAvail {
				ln.fetchAvail = dispatchAt + st.btbMissPen
			}
			ln.res.StallFrontEnd += st.btbMissPen
		}

	default:
		complete = issueAt + st.lat[b.Cls]
	}

	for i := uint8(0); i < b.nDst; i++ {
		ln.regReady[b.dst[i]] = complete
	}
	ln.rob[seq%uint64(len(ln.rob))] = ln.retireSlot(st, complete)
}
