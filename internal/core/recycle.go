package core

import (
	"sync"

	"racesim/internal/branch"
	"racesim/internal/cache"
)

// laneParts is the storage behind one lane: its cache hierarchy, its
// branch unit, and one block of words carved into its queue rings and
// contention pipes. Batch lanes draw it from pools and return it on
// Release, so after warm-up a replay allocates none of it; the per-event
// oracle builds it fresh and never releases it.
type laneParts struct {
	hier  *cache.Hierarchy
	bu    *branch.Unit
	words *laneWords
}

// laneWords is a lane's block of queue and pipe words. Pooled blocks are
// all-zero over their whole capacity. The pool holds pointers to this
// struct rather than slices, so putting one back does not allocate.
type laneWords struct{ w []uint64 }

var wordsPool sync.Pool

// newLaneParts builds a lane's storage for the given hierarchy, branch
// unit and word count: recycled from the pools when recycle is set,
// freshly allocated otherwise.
func newLaneParts(mem cache.HierarchyConfig, br branch.Config, words int, recycle bool) (laneParts, error) {
	if !recycle {
		hier, err := cache.NewHierarchy(mem)
		if err != nil {
			return laneParts{}, err
		}
		bu, err := branch.NewUnit(br)
		if err != nil {
			return laneParts{}, err
		}
		return laneParts{hier: hier, bu: bu, words: &laneWords{w: make([]uint64, words)}}, nil
	}
	hier, err := cache.AcquireHierarchy(mem)
	if err != nil {
		return laneParts{}, err
	}
	bu, err := branch.AcquireUnit(br)
	if err != nil {
		return laneParts{}, err
	}
	lw, _ := wordsPool.Get().(*laneWords)
	if lw == nil {
		lw = new(laneWords)
	}
	if cap(lw.w) < words {
		lw.w = make([]uint64, words)
	}
	lw.w = lw.w[:words]
	return laneParts{hier: hier, bu: bu, words: lw}, nil
}

// release returns the storage to the pools. The lane must not be used
// afterwards.
func (p *laneParts) release() {
	p.hier.Release()
	p.bu.Release()
	clear(p.words.w)
	wordsPool.Put(p.words)
	*p = laneParts{}
}

// carver hands out consecutive sub-slices of a lane's words.
type carver []uint64

func (c *carver) take(n int) []uint64 {
	s := (*c)[:n:n]
	*c = (*c)[n:]
	return s
}
