package lmbench

import (
	"fmt"
	"math/rand"
	"strings"

	"racesim/internal/asm"
	"racesim/internal/hw"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
)

// Estimates are the derived load-to-use latencies in cycles.
type Estimates struct {
	L1Cycles  int
	L2Cycles  int
	MemCycles int
}

// touchPreamble emits a store loop touching every page of the buffer, so
// the chain counts as program-written memory (as lmbench's list
// construction does). It stores at byte 56 of each page: inside the page
// but clear of the 8-byte chain pointers at stride-aligned offsets.
func touchPreamble(sizeBytes int) string {
	pages := sizeBytes / 4096
	if pages < 1 {
		pages = 1
	}
	return fmt.Sprintf("la x27, BUF\nla x26, %d\nmovz x25, #1\ntouch:\nstrx x25, [x27, #56]\naddi x27, x27, #4095\naddi x27, x27, #1\nsubi x26, x26, #1\ncbnz x26, touch\n", pages)
}

// chaseProgram builds a pointer-chase program over a permuted cycle of
// nodes spaced stride bytes apart in a buffer of the given size. The chain
// is written with stores first (as lmbench does when building its list),
// then chased with four dependent loads per loop iteration.
func chaseProgram(sizeBytes, stride int, iters int, rng *rand.Rand) string {
	n := sizeBytes / stride
	perm := rng.Perm(n)
	// Build a single cycle following the permutation order (Sattolo-like:
	// node perm[i] points to perm[i+1]).
	var b strings.Builder
	b.WriteString(".equ BUF, 0x2000000\n.org 0x1000\n")
	b.WriteString(touchPreamble(sizeBytes))
	// The chain itself is data: node offsets hold absolute next pointers.
	fmt.Fprintf(&b, "la x20, BUF+%d\n", perm[0]*stride)
	fmt.Fprintf(&b, "la x28, %d\n", iters)
	b.WriteString(`chase:
ldrx x20, [x20, #0]
ldrx x20, [x20, #0]
ldrx x20, [x20, #0]
ldrx x20, [x20, #0]
subi x28, x28, #1
cbnz x28, chase
halt
`)
	for i := 0; i < n; i++ {
		next := perm[(i+1)%n]
		fmt.Fprintf(&b, ".data BUF+%d\n.quad BUF+%d\n", perm[i]*stride, next*stride)
	}
	return b.String()
}

// chaseTrace records the pointer chase for one working-set size. It
// depends only on its arguments, never on the board, so a job's memo
// shares it between boards.
func chaseTrace(sizeBytes, stride, iters int, seed int64, memo *tracememo.Memo) (*trace.Trace, error) {
	key := fmt.Sprintf("lmbench\x00chase\x00size=%d\x00stride=%d\x00iters=%d\x00seed=%d", sizeBytes, stride, iters, seed)
	return memo.Get(key, func() (*trace.Trace, error) {
		rng := rand.New(rand.NewSource(seed))
		src := chaseProgram(sizeBytes, stride, iters, rng)
		prog, err := asm.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("lmbench: %w", err)
		}
		tr, err := trace.Record(fmt.Sprintf("lmbench-%d", sizeBytes), prog, 30_000_000)
		if err != nil {
			return nil, fmt.Errorf("lmbench: %w", err)
		}
		return tr, nil
	})
}

// calibrationTrace records the touch preamble alone for one working-set
// size (board-independent, like chaseTrace).
func calibrationTrace(sizeBytes int, memo *tracememo.Memo) (*trace.Trace, error) {
	key := fmt.Sprintf("lmbench\x00cal\x00size=%d", sizeBytes)
	return memo.Get(key, func() (*trace.Trace, error) {
		calSrc := touchPreamble(sizeBytes) + "halt\n"
		calProg, err := asm.Assemble(".equ BUF, 0x2000000\n.org 0x1000\n" + calSrc)
		if err != nil {
			return nil, fmt.Errorf("lmbench: %w", err)
		}
		calTr, err := trace.Record(fmt.Sprintf("lmbench-cal-%d", sizeBytes), calProg, 30_000_000)
		if err != nil {
			return nil, fmt.Errorf("lmbench: %w", err)
		}
		return calTr, nil
	})
}

// measureChase returns measured cycles per load for one working-set size.
// A calibration trace containing only the touch preamble is measured and
// subtracted, so the estimate isolates the chase itself (the loop overhead
// executes in the shadow of the dependent loads and costs ~nothing).
func measureChase(b *hw.Board, sizeBytes, stride, iters int, seed int64, memo *tracememo.Memo) (float64, error) {
	tr, err := chaseTrace(sizeBytes, stride, iters, seed, memo)
	if err != nil {
		return 0, err
	}
	c, err := b.Measure(tr)
	if err != nil {
		return 0, err
	}
	calTr, err := calibrationTrace(sizeBytes, memo)
	if err != nil {
		return 0, err
	}
	cal, err := b.Measure(calTr)
	if err != nil {
		return 0, err
	}
	cycles := float64(c.Cycles) - float64(cal.Cycles)
	if cycles <= 0 {
		cycles = float64(c.Cycles)
	}
	return cycles / float64(4*iters), nil // four dependent loads per iteration
}

// Estimate derives L1, L2 and memory latencies from three chases whose
// cache-line footprint (nodes x 64 B) lands well inside each level: 8 KB
// for L1, 128 KB for L2 (beyond L1, inside both cores' L2), and 2 MB of
// touched lines spread over 16 MB for memory (beyond both L2s).
func Estimate(b *hw.Board) (Estimates, error) {
	return EstimateWith(b, nil)
}

// EstimateWith is Estimate through a job's trace memo (nil: no memo),
// so estimating several boards in one job records each chase once.
func EstimateWith(b *hw.Board, memo *tracememo.Memo) (Estimates, error) {
	l1, err := measureChase(b, 8*1024, 64, 6000, 1, memo)
	if err != nil {
		return Estimates{}, err
	}
	l2, err := measureChase(b, 128*1024, 64, 4000, 2, memo)
	if err != nil {
		return Estimates{}, err
	}
	mem, err := measureChase(b, 16*1024*1024, 512, 1500, 3, memo)
	if err != nil {
		return Estimates{}, err
	}
	round := func(v float64) int {
		if v < 1 {
			return 1
		}
		return int(v + 0.5)
	}
	return Estimates{L1Cycles: round(l1), L2Cycles: round(l2), MemCycles: round(mem)}, nil
}

// Snap returns the candidate from vals closest to estimate (used to plug
// estimates into the discrete parameter space).
func Snap(estimate int, vals []int) int {
	best := vals[0]
	for _, v := range vals[1:] {
		d1, d2 := estimate-v, estimate-best
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if d1 < d2 {
			best = v
		}
	}
	return best
}
