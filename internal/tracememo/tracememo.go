// Package tracememo memoizes generated traces — and, transitively, their
// decode-once columnar forms — across engine jobs.
//
// Trace generation (micro-benchmark emulation, workload synthesis) is
// deterministic in its parameters, so a serve worker executing the same
// job shape repeatedly re-derives byte-identical traces every time; in
// the warm-cache steady state that emulation dominates the job, not the
// simulations (those are cache hits). The memo keys a generated trace by
// its generation parameters and returns the shared *trace.Trace on
// repeat requests. Because trace.Trace memoizes its Decoded forms
// internally (sync.Once per decoder variant), holding the trace holds
// the decoded columns too: the second job skips generation *and* decode.
//
// Entries are evicted least-recently-used against a byte budget and,
// optionally, by age — a memoized trace is a pure function of its key,
// so age eviction exists only to bound memory held for job shapes that
// stopped arriving, never for correctness.
//
// A nil *Memo is valid and memoizes nothing (every Get generates), so
// batch callers that run one job per process pay zero overhead.
//
// Batch jobs own one unbounded memo each (an experiments Context, a
// validate job): within the job every distinct trace is synthesized
// once, and the memo is garbage with the job, so nothing carries over
// to the next job in the same process.
package tracememo

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"
	"time"

	"racesim/internal/isa"
	"racesim/internal/trace"
)

// eventFootprint approximates the resident bytes one dynamic trace event
// costs once warm: the Event itself (40 bytes) plus its share of up to
// two decoded variants (id + three dynamic columns + taken bit ≈ 36
// bytes each). Used for budget accounting only.
const eventFootprint = 40 + 2*36

// entryOverhead covers the per-entry bookkeeping (key, map slot, list
// element, decode tables) beyond the event columns.
const entryOverhead = 512

// Size estimates the resident bytes of a memoized trace.
func Size(t *trace.Trace) int64 {
	return int64(len(t.Events))*eventFootprint + entryOverhead
}

type mentry struct {
	key   string
	tr    *trace.Trace
	size  int64
	added time.Time
	elem  *list.Element
}

type flight struct {
	done chan struct{}
	tr   *trace.Trace
	err  error
}

// Stats reports memo effectiveness. Hits counts every Get answered
// without generating, including waits on an identical in-flight Get.
type Stats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Evicted uint64 `json:"evicted"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// Memo is a budget-bounded, age-aware trace memoization table, safe for
// concurrent use. Concurrent Gets of the same key generate once: the
// first claims the key, the rest wait for its result.
type Memo struct {
	mu       sync.Mutex
	budget   int64         // bytes; <= 0 = unbounded
	maxAge   time.Duration // <= 0 = no age eviction
	used     int64
	entries  map[string]*mentry
	lru      *list.List // front = most recently used
	inflight map[string]*flight
	hits     uint64
	misses   uint64
	evicted  uint64
}

// New returns a memo bounded by budget bytes (<= 0: unbounded) and
// maxAge (<= 0: no age eviction).
func New(budget int64, maxAge time.Duration) *Memo {
	return &Memo{
		budget:   budget,
		maxAge:   maxAge,
		entries:  map[string]*mentry{},
		lru:      list.New(),
		inflight: map[string]*flight{},
	}
}

// Get returns the memoized trace for key, generating and storing it on
// first request. A generation error is returned but never stored, so a
// later Get retries. On a nil memo, Get just generates.
func (m *Memo) Get(key string, generate func() (*trace.Trace, error)) (*trace.Trace, error) {
	if m == nil {
		return generate()
	}
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		if m.maxAge > 0 && time.Since(e.added) > m.maxAge {
			m.removeLocked(e)
		} else {
			m.hits++
			m.lru.MoveToFront(e.elem)
			tr := e.tr
			m.mu.Unlock()
			return tr, nil
		}
	}
	if fl, ok := m.inflight[key]; ok {
		m.hits++
		m.mu.Unlock()
		<-fl.done
		return fl.tr, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	m.inflight[key] = fl
	m.misses++
	m.mu.Unlock()

	tr, err := generate()
	fl.tr, fl.err = tr, err

	m.mu.Lock()
	delete(m.inflight, key)
	if err == nil && tr != nil {
		e := &mentry{key: key, tr: tr, size: Size(tr), added: time.Now()}
		e.elem = m.lru.PushFront(e)
		m.entries[key] = e
		m.used += e.size
		m.evictLocked()
	}
	m.mu.Unlock()
	close(fl.done)
	return tr, err
}

// Record is trace.Record(name, prog, maxInst) through the memo. It keys
// the recording by what emulation reads — the program's entry point,
// code words and data segments, plus the name and instruction cap — not
// by how the program was generated, so generators that emit equal
// programs (a micro-benchmark that ignores an option, say) share one
// emulation. Symbols are diagnostics only and stay out of the key.
func (m *Memo) Record(name string, prog *isa.Program, maxInst uint64) (*trace.Trace, error) {
	if m == nil {
		return trace.Record(name, prog, maxInst)
	}
	key := "record\x00" + name + "\x00" + strconv.FormatUint(maxInst, 10) + "\x00" + programDigest(prog)
	return m.Get(key, func() (*trace.Trace, error) {
		return trace.Record(name, prog, maxInst)
	})
}

// programDigest is a hex SHA-256 of everything the emulator reads from
// prog: the entry point, the code words and the initialized data
// segments in order.
func programDigest(prog *isa.Program) string {
	h := sha256.New()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], prog.Entry)
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(prog.Code)))
	h.Write(buf[:])
	for _, w := range prog.Code {
		binary.LittleEndian.PutUint32(buf[:4], w)
		h.Write(buf[:4])
	}
	for _, seg := range prog.Data {
		binary.LittleEndian.PutUint64(buf[:8], seg.Addr)
		binary.LittleEndian.PutUint64(buf[8:], uint64(len(seg.Data)))
		h.Write(buf[:])
		h.Write(seg.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// evictLocked drops least-recently-used entries until within budget. The
// newest entry is never evicted — a single trace larger than the whole
// budget must still be servable to the job that generated it.
func (m *Memo) evictLocked() {
	if m.budget <= 0 {
		return
	}
	for m.used > m.budget && m.lru.Len() > 1 {
		e := m.lru.Back().Value.(*mentry)
		m.removeLocked(e)
		m.evicted++
	}
}

func (m *Memo) removeLocked(e *mentry) {
	m.lru.Remove(e.elem)
	delete(m.entries, e.key)
	m.used -= e.size
}

// Stats snapshots the memo counters.
func (m *Memo) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Hits:    m.hits,
		Misses:  m.misses,
		Evicted: m.evicted,
		Entries: len(m.entries),
		Bytes:   m.used,
	}
}
