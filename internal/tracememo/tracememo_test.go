package tracememo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"racesim/internal/asm"
	"racesim/internal/isa"
	"racesim/internal/trace"
)

func tinyTrace(name string, events int) *trace.Trace {
	t := &trace.Trace{Name: name}
	for i := 0; i < events; i++ {
		t.Events = append(t.Events, trace.Event{PC: uint64(i) * 4, Word: 0xd503201f})
	}
	return t
}

func TestGetMemoizesByKey(t *testing.T) {
	m := New(0, 0)
	calls := 0
	gen := func() (*trace.Trace, error) { calls++; return tinyTrace("a", 10), nil }

	first, err := m.Get("k", gen)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Get("k", gen)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("repeat Get returned a different trace pointer")
	}
	if calls != 1 {
		t.Errorf("generator ran %d times, want 1", calls)
	}
	if _, err := m.Get("other", gen); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("distinct key should generate: %d calls, want 2", calls)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 2 entries", st)
	}
}

func TestNilMemoGenerates(t *testing.T) {
	var m *Memo
	tr, err := m.Get("k", func() (*trace.Trace, error) { return tinyTrace("a", 1), nil })
	if err != nil || tr == nil {
		t.Fatalf("nil memo Get = (%v, %v), want a generated trace", tr, err)
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Errorf("nil memo stats = %+v, want zero", st)
	}
}

func TestErrorsAreNotStored(t *testing.T) {
	m := New(0, 0)
	boom := errors.New("boom")
	if _, err := m.Get("k", func() (*trace.Trace, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed generation must not poison the key: a retry generates.
	tr, err := m.Get("k", func() (*trace.Trace, error) { return tinyTrace("a", 1), nil })
	if err != nil || tr == nil {
		t.Fatalf("retry after error = (%v, %v), want success", tr, err)
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	// Budget fits roughly two 100-event traces.
	m := New(2*Size(tinyTrace("x", 100))+1, 0)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := m.Get(key, func() (*trace.Trace, error) { return tinyTrace(key, 100), nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions under budget pressure: %+v", st)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	// k0 was least recently used; k2 must have survived.
	regen := 0
	if _, err := m.Get("k2", func() (*trace.Trace, error) { regen++; return tinyTrace("k2", 100), nil }); err != nil {
		t.Fatal(err)
	}
	if regen != 0 {
		t.Error("most recent entry was evicted")
	}
}

func TestOversizeEntryStillServed(t *testing.T) {
	m := New(1, 0) // smaller than any trace
	tr, err := m.Get("big", func() (*trace.Trace, error) { return tinyTrace("big", 1000), nil })
	if err != nil || tr == nil {
		t.Fatalf("oversize Get = (%v, %v), want the trace", tr, err)
	}
	if st := m.Stats(); st.Entries != 1 {
		t.Errorf("the newest entry must survive eviction: %+v", st.Entries)
	}
}

// TestConcurrentGetSingleflight proves that concurrent Gets of one key
// generate exactly once and all receive the same trace. Run under -race
// in CI alongside the decoded-trace sharing tests.
func TestConcurrentGetSingleflight(t *testing.T) {
	m := New(0, 0)
	var calls atomic.Int32
	var wg sync.WaitGroup
	results := make([]*trace.Trace, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := m.Get("k", func() (*trace.Trace, error) {
				calls.Add(1)
				return tinyTrace("k", 50), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = tr
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("generator ran %d times under concurrent Gets, want 1", n)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent Gets received different trace pointers")
		}
	}
}

// TestRecordKeysByProgramContent: Record shares one emulation between
// programs that differ only in their diagnostic symbols, but not across
// names, instruction caps or code.
func TestRecordKeysByProgramContent(t *testing.T) {
	src := ".org 0x1000\nla x1, 50\n%s:\nsubi x1, x1, #1\ncbnz x1, %s\nhalt\n"
	prog := func(label string) *isa.Program {
		p, err := asm.Assemble(fmt.Sprintf(src, label, label))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	m := New(0, 0)
	a, err := m.Record("loop", prog("one"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Record("loop", prog("two"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("programs differing only in label names were emulated twice")
	}
	other, err := m.Record("loop2", prog("one"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := m.Record("loop", prog("one"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if other == a || other.Name != "loop2" || capped == a || capped.Len() != 10 {
		t.Error("a different name or instruction cap shared an emulation")
	}
	withData := prog("one")
	withData.Data = []isa.Segment{{Addr: 0x2000, Data: []byte{1}}}
	data1, err := m.Record("loop", withData, 1000)
	if err != nil {
		t.Fatal(err)
	}
	withData.Data[0].Data[0] = 2
	data2, err := m.Record("loop", withData, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if data1 == a || data2 == data1 {
		t.Error("programs with different data segments shared an emulation")
	}
	if st := m.Stats(); st.Misses != 5 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 5 misses and 1 hit", st)
	}
	var nilMemo *Memo
	direct, err := nilMemo.Record("loop", prog("one"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Digest() != a.Digest() {
		t.Error("the memo changed what was recorded")
	}
}
