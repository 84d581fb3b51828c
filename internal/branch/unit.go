package branch

import (
	"sync"

	"racesim/internal/isa"
)

// btb is a set-associative branch target buffer with LRU replacement.
type btb struct {
	sets  int
	mask  uint64 // sets-1 when sets is a power of two, else 0 (modulo path)
	assoc int
	tags  []uint64 // sets*assoc; 0 = invalid
	tgts  []uint64
	lru   []uint8
}

// reset empties b and sizes it to entries/assoc, reusing its storage.
func (b *btb) reset(entries, assoc int) {
	sets := entries / assoc
	*b = btb{
		sets:  sets,
		assoc: assoc,
		tags:  resize(b.tags, entries),
		tgts:  resize(b.tgts, entries),
		lru:   resize(b.lru, entries),
	}
	if sets&(sets-1) == 0 {
		b.mask = uint64(sets - 1)
	}
	clear(b.tags)
	clear(b.tgts)
	// Recency ranks must form a permutation per set (0 = MRU) for touch to
	// age the other ways correctly.
	for w := range assoc {
		b.lru[w] = uint8(w)
	}
	repeat(b.lru, assoc)
}

func (b *btb) set(pc uint64) int {
	if b.mask != 0 || b.sets == 1 {
		return int((pc >> 2) & b.mask)
	}
	return int((pc >> 2) % uint64(b.sets))
}

func (b *btb) lookup(pc uint64) (uint64, bool) {
	base := b.set(pc) * b.assoc
	for w := 0; w < b.assoc; w++ {
		if b.tags[base+w] == pc {
			b.touch(base, w)
			return b.tgts[base+w], true
		}
	}
	return 0, false
}

func (b *btb) touch(base, way int) {
	old := b.lru[base+way]
	if old == 0 {
		return // already MRU
	}
	for w := 0; w < b.assoc; w++ {
		if b.lru[base+w] < old {
			b.lru[base+w]++
		}
	}
	b.lru[base+way] = 0
}

func (b *btb) insert(pc, target uint64) {
	base := b.set(pc) * b.assoc
	victim := 0
	for w := 0; w < b.assoc; w++ {
		if b.tags[base+w] == pc || b.tags[base+w] == 0 {
			victim = w
			break
		}
		if b.lru[base+w] > b.lru[base+victim] {
			victim = w
		}
	}
	b.tags[base+victim] = pc
	b.tgts[base+victim] = target
	b.touch(base, victim)
}

// indirect is a tagged target cache indexed by PC hashed with recent
// indirect-target path history.
type indirect struct {
	tags []uint64
	tgts []uint64
	mask uint64
	hist uint64
	bits int
}

// reset empties p and sizes it to entries, reusing its storage.
func (p *indirect) reset(entries, histBits int) {
	*p = indirect{
		tags: resize(p.tags, entries),
		tgts: resize(p.tgts, entries),
		mask: uint64(entries - 1),
		bits: histBits,
	}
	clear(p.tags)
	clear(p.tgts)
}

func (p *indirect) idx(pc uint64) uint64 {
	h := p.hist & (1<<p.bits - 1)
	return ((pc >> 2) ^ h) & p.mask
}

func (p *indirect) lookup(pc uint64) (uint64, bool) {
	i := p.idx(pc)
	if p.tags[i] == pc {
		return p.tgts[i], true
	}
	return 0, false
}

func (p *indirect) update(pc, target uint64) {
	i := p.idx(pc)
	p.tags[i] = pc
	p.tgts[i] = target
	// Fold several target bit ranges so aligned targets still perturb the
	// path history.
	p.hist = p.hist<<2 ^ (target>>2 ^ target>>12 ^ target>>22)
}

// ras is a return address stack.
type ras struct {
	stack []uint64
	top   int
	size  int
}

// reset empties r and sizes it to entries, reusing its storage.
func (r *ras) reset(entries int) {
	*r = ras{stack: resize(r.stack, max(entries, 1)), size: entries}
	clear(r.stack)
}

func (r *ras) push(addr uint64) {
	if r.size == 0 {
		return
	}
	r.top = (r.top + 1) % r.size
	r.stack[r.top] = addr
}

func (r *ras) pop() (uint64, bool) {
	if r.size == 0 {
		return 0, false
	}
	v := r.stack[r.top]
	r.top = (r.top - 1 + r.size) % r.size
	return v, v != 0
}

// Stats accumulates prediction statistics.
type Stats struct {
	Branches      uint64 // conditional + unconditional direct
	DirectionMiss uint64
	BTBMiss       uint64 // taken branches whose target was not in the BTB
	Indirect      uint64
	IndirectMiss  uint64
	Returns       uint64
	ReturnMiss    uint64
	Calls         uint64
}

// Mispredicts returns the total number of full pipeline-flush events.
func (s *Stats) Mispredicts() uint64 { return s.DirectionMiss + s.IndirectMiss + s.ReturnMiss }

// MPKI returns mispredictions per kilo-instruction given a total
// instruction count.
func (s *Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Mispredicts()) / float64(instructions) * 1000
}

// Outcome describes how the unit handled one branch.
type Outcome struct {
	// Mispredict is a wrong direction or wrong predicted target: the
	// pipeline restarts from the redirect stage (full penalty).
	Mispredict bool
	// TargetMiss is a correct direction but a BTB miss on a taken direct
	// branch: the front-end refetches after decode (shorter bubble).
	TargetMiss bool
}

// Unit is a complete branch prediction unit. It holds the storage of
// every direction predictor kind, so a recycled unit can change kinds
// without allocating; dir points at the one in use.
type Unit struct {
	cfg       Config
	dir       DirectionPredictor
	dirStatic bool // dir is the static predictor (checked per branch otherwise)
	bim       bimodal
	gsh       gshare
	tour      tournament
	btb       btb
	ind       indirect // used only when cfg.IndirectEnabled
	ras       ras
	stats     Stats
}

// NewUnit builds a unit from cfg; cfg must be valid.
func NewUnit(cfg Config) (*Unit, error) {
	u := new(Unit)
	if err := u.init(cfg); err != nil {
		return nil, err
	}
	return u, nil
}

// unitPool holds released units. Their tables are re-initialised on
// acquire (counters start nonzero), so they need no clearing on release.
var unitPool sync.Pool

// AcquireUnit returns a unit in the state NewUnit(cfg) builds, recycling
// the storage of a released one when there is one.
func AcquireUnit(cfg Config) (*Unit, error) {
	u, _ := unitPool.Get().(*Unit)
	if u == nil {
		u = new(Unit)
	}
	if err := u.init(cfg); err != nil {
		return nil, err
	}
	return u, nil
}

// Release returns u to the pool AcquireUnit draws from. u must not be
// used afterwards.
func (u *Unit) Release() { unitPool.Put(u) }

// init puts u in the state NewUnit(cfg) builds, reusing u's tables where
// their capacity suffices.
func (u *Unit) init(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	u.cfg, u.stats = cfg, Stats{}
	switch cfg.Kind {
	case KindBimodal:
		u.bim.reset(cfg.BimodalEntries)
		u.dir = &u.bim
	case KindGShare:
		u.gsh.reset(cfg.GShareEntries, cfg.HistoryBits)
		u.dir = &u.gsh
	case KindTournament:
		u.tour.reset(cfg)
		u.dir = &u.tour
	default:
		u.dir = static{}
	}
	_, u.dirStatic = u.dir.(static)
	u.btb.reset(cfg.BTBEntries, cfg.BTBAssoc)
	u.ras.reset(cfg.RASEntries)
	if cfg.IndirectEnabled {
		u.ind.reset(cfg.IndirectEntries, cfg.IndirectHistory)
	}
	return nil
}

// Stats returns accumulated statistics.
func (u *Unit) Stats() Stats { return u.stats }

// Access predicts the branch in, updates all structures with the actual
// outcome, and reports the timing consequence.
func (u *Unit) Access(in *isa.Inst) Outcome {
	return u.AccessOutcome(in.Cls, in.Op, in.PC, in.Target, in.Taken)
}

// AccessOutcome is Access over the branch's fields directly, so decoded
// trace replay can drive the unit without materializing an isa.Inst per
// dynamic branch.
func (u *Unit) AccessOutcome(cls isa.Class, op isa.Op, pc, target uint64, taken bool) Outcome {
	switch cls {
	case isa.ClassBranch:
		u.stats.Branches++
		var predTaken bool
		if op == isa.OpB {
			predTaken = true // unconditional: direction known at decode
		} else if u.dirStatic {
			predTaken = target <= pc // backward taken, forward not-taken
		} else {
			predTaken = u.dir.Predict(pc)
		}
		predTarget, btbHit := u.btb.lookup(pc)
		u.dir.Update(pc, taken)
		if taken {
			u.btb.insert(pc, target)
		}
		if predTaken != taken {
			u.stats.DirectionMiss++
			return Outcome{Mispredict: true}
		}
		if taken && (!btbHit || predTarget != target) {
			u.stats.BTBMiss++
			return Outcome{TargetMiss: true}
		}
		return Outcome{}

	case isa.ClassCall:
		u.stats.Calls++
		u.ras.push(pc + isa.InstSize)
		_, btbHit := u.btb.lookup(pc)
		u.btb.insert(pc, target)
		if !btbHit {
			u.stats.BTBMiss++
			return Outcome{TargetMiss: true}
		}
		return Outcome{}

	case isa.ClassRet:
		u.stats.Returns++
		pred, ok := u.ras.pop()
		if !ok || pred != target {
			u.stats.ReturnMiss++
			return Outcome{Mispredict: true}
		}
		return Outcome{}

	case isa.ClassBranchInd:
		u.stats.Indirect++
		var pred uint64
		var hit bool
		if u.cfg.IndirectEnabled {
			pred, hit = u.ind.lookup(pc)
			u.ind.update(pc, target)
		} else {
			pred, hit = u.btb.lookup(pc)
			u.btb.insert(pc, target)
		}
		if !hit || pred != target {
			u.stats.IndirectMiss++
			return Outcome{Mispredict: true}
		}
		return Outcome{}
	}
	return Outcome{}
}

// repeat copies s[:n] over the rest of s, period n, in log2(len(s)/n)
// copies rather than one store per element. len(s) is a multiple of n.
func repeat[T any](s []T, n int) {
	for n < len(s) {
		n += copy(s[n:], s[:n])
	}
}

// resize returns s with length n, re-slicing when its capacity suffices.
// Callers re-initialise every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
