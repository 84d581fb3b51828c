package expt

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"racesim/internal/hw"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
)

// distinctDigests counts the distinct trace contents measured on a board.
func distinctDigests(t *testing.T, c *Context, b *hw.Board) int {
	t.Helper()
	ms, err := c.Measurements(b)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range ms {
		seen[m.Trace.Digest()] = true
	}
	return len(seen)
}

// TestContextDoesEachPieceOnce: within one Context every distinct
// program is emulated once and every (board, content) pair simulated
// once, whichever experiments ask for them; a fresh Context starts over.
func TestContextDoesEachPieceOnce(t *testing.T) {
	suite := len(ubench.Suite())
	for round := range 2 {
		c, err := NewContext(Options{UbenchScale: 0.0005, WorkloadEvents: 1000, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if w := c.Work(); w != (Work{}) {
			t.Fatalf("round %d: fresh context reports work %+v", round, w)
		}
		plat := c.Platform()
		d53 := distinctDigests(t, c, plat.A53)
		d72 := distinctDigests(t, c, plat.A72)
		if _, err := c.Table1(); err != nil {
			t.Fatal(err)
		}
		// Repeat requests are answered from the context's memos.
		if _, err := c.Measurements(plat.A53); err != nil {
			t.Fatal(err)
		}

		w := c.Work()
		if w.Traces.Misses != uint64(suite) || w.Traces.Entries != suite {
			t.Errorf("round %d: %d emulations, %d entries; want one per benchmark (%d)", round, w.Traces.Misses, w.Traces.Entries, suite)
		}
		// Measurements on the second board and Table I reuse every trace.
		if w.Traces.Hits != uint64(2*suite) {
			t.Errorf("round %d: %d memo hits, want %d", round, w.Traces.Hits, 2*suite)
		}
		a53, a72 := plat.A53.Stats(), plat.A72.Stats()
		if a53.Simulated != uint64(d53) || a72.Simulated != uint64(d72) {
			t.Errorf("round %d: boards simulated %d and %d, want one per distinct trace (%d, %d)",
				round, a53.Simulated, a72.Simulated, d53, d72)
		}
		if want := uint64(2*suite - d53 - d72); w.Boards.Simulated+w.Boards.Reused != uint64(2*suite) || w.Boards.Reused != want {
			t.Errorf("round %d: board work %+v, want %d measures with %d reused", round, w.Boards, 2*suite, want)
		}
	}
}

// TestContextMemoCollectable: the trace memo lives and dies with its
// Context, so a finished job's traces (and their decodes) are garbage.
func TestContextMemoCollectable(t *testing.T) {
	memo := func() weak.Pointer[tracememo.Memo] {
		c, err := NewContext(Options{UbenchScale: 0.0005, WorkloadEvents: 1000, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Table1(); err != nil {
			t.Fatal(err)
		}
		if c.memo.Stats().Entries == 0 {
			t.Fatal("Table I recorded nothing through the memo")
		}
		return weak.Make(c.memo)
	}()
	for range 100 {
		runtime.GC()
		if memo.Value() == nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the context's trace memo outlived the context")
}
