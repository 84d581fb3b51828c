package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"racesim/internal/isa"
)

// Binary format ("RIFT"):
//
//	magic   "RIFT"
//	version uvarint (currently 2)
//	flags   uvarint (bit0 = warm data)
//	name    uvarint length + bytes
//	count   uvarint (number of events)
//	events  count records, each:
//	  flags  byte      bit0 = has memory address, bit1 = branch taken,
//	                   bit2 = has branch target
//	  pc     svarint   delta from previous PC + 4 (0 for straight-line code)
//	  word   uvarint
//	  mem    svarint   delta from previous memory address (if bit0)
//	  target svarint   delta from own PC (if bit2)
//
// Deltas keep straight-line code and strided access patterns to a couple of
// bytes per instruction. Bits 0 and 2 follow from the decoded instruction
// word (see shape); a reader rejects events whose flags disagree, so every
// accepted stream writes back to an equal trace.

const magic = "RIFT"
const version = 2

// ErrFormat is returned when a stream is not a valid trace file.
var ErrFormat = errors.New("trace: invalid file format")

// Writer streams events to an io.Writer in RIFT format.
type Writer struct {
	w       *bufio.Writer
	prevPC  uint64
	prevMem uint64
	buf     [2 * binary.MaxVarintLen64]byte
}

// WriteTo serialises t to w.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(magic); err != nil {
		return cw.n, err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(version); err != nil {
		return cw.n, err
	}
	var flags uint64
	if t.WarmData {
		flags |= 1
	}
	if err := put(flags); err != nil {
		return cw.n, err
	}
	if err := put(uint64(len(t.Name))); err != nil {
		return cw.n, err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return cw.n, err
	}
	if err := put(uint64(len(t.Events))); err != nil {
		return cw.n, err
	}
	wr := Writer{w: bw}
	for _, ev := range t.Events {
		if err := wr.writeEvent(ev); err != nil {
			return cw.n, err
		}
	}
	err := bw.Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// shape reports which optional fields an event carries in the file: a
// memory address for memory instructions, a target for branches. Words
// that do not decode carry neither.
func shape(dec *isa.Decoder, pc uint64, word uint32) (hasMem, isBranch bool) {
	in, err := dec.Decode(pc, word)
	return err == nil && in.Cls.IsMem(), err == nil && in.Cls.IsBranch()
}

func (w *Writer) writeEvent(ev Event) error {
	var flags byte
	var dec isa.Decoder
	hasMem, isBranch := shape(&dec, ev.PC, ev.Word)
	if hasMem {
		flags |= 1
	}
	if ev.Taken {
		flags |= 2
	}
	if isBranch {
		flags |= 4
	}
	if err := w.w.WriteByte(flags); err != nil {
		return err
	}
	n := binary.PutVarint(w.buf[:], int64(ev.PC)-int64(w.prevPC+isa.InstSize))
	w.prevPC = ev.PC
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	n = binary.PutUvarint(w.buf[:], uint64(ev.Word))
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	if hasMem {
		n = binary.PutVarint(w.buf[:], int64(ev.MemAddr)-int64(w.prevMem))
		w.prevMem = ev.MemAddr
		if _, err := w.w.Write(w.buf[:n]); err != nil {
			return err
		}
	}
	if isBranch {
		n = binary.PutVarint(w.buf[:], int64(ev.Target)-int64(ev.PC))
		if _, err := w.w.Write(w.buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrom parses a RIFT stream.
func ReadFrom(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil || string(head) != magic {
		return nil, ErrFormat
	}
	v, err := binary.ReadUvarint(br)
	if err != nil || v != version {
		return nil, fmt.Errorf("%w: version %d", ErrFormat, v)
	}
	flags, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, ErrFormat
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > 1<<20 {
		return nil, ErrFormat
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, ErrFormat
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, ErrFormat
	}
	// The count is untrusted: preallocate at most what a short file
	// could plausibly hold and let append grow past it.
	t := &Trace{Name: string(name), WarmData: flags&1 != 0, Events: make([]Event, 0, min(count, 1<<16))}
	var prevPC, prevMem uint64
	var dec isa.Decoder
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at event %d", ErrFormat, i)
		}
		dpc, err := binary.ReadVarint(br)
		if err != nil {
			return nil, ErrFormat
		}
		pc := uint64(int64(prevPC+isa.InstSize) + dpc)
		prevPC = pc
		word, err := binary.ReadUvarint(br)
		if err != nil || word > math.MaxUint32 {
			return nil, ErrFormat
		}
		hasMem, isBranch := shape(&dec, pc, uint32(word))
		if flags&^7 != 0 || (flags&1 != 0) != hasMem || (flags&4 != 0) != isBranch {
			return nil, fmt.Errorf("%w: event %d flags %#x disagree with its instruction", ErrFormat, i, flags)
		}
		ev := Event{PC: pc, Word: uint32(word), Taken: flags&2 != 0}
		if flags&1 != 0 {
			dm, err := binary.ReadVarint(br)
			if err != nil {
				return nil, ErrFormat
			}
			ev.MemAddr = uint64(int64(prevMem) + dm)
			prevMem = ev.MemAddr
		}
		if flags&4 != 0 {
			dt, err := binary.ReadVarint(br)
			if err != nil {
				return nil, ErrFormat
			}
			ev.Target = uint64(int64(pc) + dt)
		}
		t.Events = append(t.Events, ev)
	}
	return t, nil
}

// WriteFile serialises t to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a trace from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}
