package sim

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"racesim/internal/trace"
	"racesim/internal/ubench"
)

// TestBehaviorTableReleasedWithDecode pins the memo's lifetime: once a
// decode is unreachable, its behavior-table entry must go with it rather
// than pinning the decode for the life of the process.
func TestBehaviorTableReleasedWithDecode(t *testing.T) {
	key := func() weak.Pointer[trace.Decoded] {
		b, ok := ubench.ByName("MD")
		if !ok {
			t.Fatal("missing micro-benchmark MD")
		}
		tr, err := b.Trace(ubench.Options{Scale: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		d := tr.Decoded(false)
		if len(Behaviors(d)) != len(d.Insts) {
			t.Fatal("behavior table does not cover the decode's static instructions")
		}
		return weak.Make(d)
	}()
	if _, ok := behaviorTables.Load(key); !ok {
		t.Fatal("behavior table was not memoized")
	}
	for range 100 {
		runtime.GC()
		if _, ok := behaviorTables.Load(key); !ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("behavior table entry outlived its collected decode")
}
