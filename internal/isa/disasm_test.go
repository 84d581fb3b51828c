package isa

import (
	"strings"
	"testing"
)

func TestDisassembleForms(t *testing.T) {
	cases := []struct {
		word uint32
		pc   uint64
		want string
	}{
		{EncR(OpADD, X(1), X(2), X(3)), 0, "add x1, x2, x3"},
		{EncR(OpCMP, 0, X(4), X(5)), 0, "cmp x4, x5"},
		{EncI(OpADDI, X(1), X(2), 42), 0, "addi x1, x2, #42"},
		{EncI(OpCMPI, 0, X(3), 7), 0, "cmpi x3, #7"},
		{EncMov(OpMOVZ, X(1), 99, 0), 0, "movz x1, #99"},
		{EncMov(OpMOVK, X(1), 0xBEEF, 2), 0, "movk x1, #48879, lsl #32"},
		{EncR(OpFMUL, 1, 2, 3), 0, "fmul v1, v2, v3"},
		{EncR(OpFSQRT, 1, 2, 0), 0, "fsqrt v1, v2"},
		{EncR(OpFCMP, 0, 1, 2), 0, "fcmp v1, v2"},
		{EncR(OpFCVTZS, X(1), 2, 0), 0, "fcvtzs x1, v2"},
		{EncR(OpSCVTF, 1, X(2), 0), 0, "scvtf v1, x2"},
		{EncMem(OpLDRX, X(1), X(2), -16), 0, "ldrx x1, [x2, #-16]"},
		{EncMem(OpSTRW, X(7), X(8), 12), 0, "strw x7, [x8, #12]"},
		{EncMem(OpLDRV, 3, X(2), 8), 0, "ldrv v3, [x2, #8]"},
		{EncR(OpLDRXR, X(1), X(2), X(3)), 0, "ldrxr x1, [x2, x3]"},
		{EncB(OpB, 4), 0x1000, "b 0x1010"},
		{EncB(OpBL, -4), 0x1000, "bl 0xff0"},
		{EncBCC(CondNE, 2), 0x1000, "b.ne 0x1008"},
		{EncCB(OpCBNZ, X(9), -1), 0x1000, "cbnz x9, 0xffc"},
		{EncBR(X(17)), 0, "br x17"},
		{EncRET(), 0, "ret"},
		{EncNOP(), 0, "nop"},
		{EncHALT(), 0, "halt"},
	}
	for _, c := range cases {
		got, err := Disassemble(c.pc, c.word)
		if err != nil {
			t.Errorf("Disassemble(%#x): %v", c.word, err)
			continue
		}
		if got != c.want {
			t.Errorf("Disassemble(%#x) = %q, want %q", c.word, got, c.want)
		}
	}
}

func TestDisassembleProgramListsLabels(t *testing.T) {
	p := &Program{
		Entry:   0x1000,
		Code:    []uint32{EncNOP(), EncR(OpADD, X(1), X(1), X(2)), EncHALT()},
		Symbols: map[string]uint64{"start": 0x1000, "body": 0x1004},
	}
	out, err := DisassembleProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"start:", "body:", "add x1, x1, x2", "halt"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

// TestDisassembleProgramSharedAddress gives two symbols one PC: the
// listing must print both, sorted, every time (map iteration order is
// random, so repeat the render).
func TestDisassembleProgramSharedAddress(t *testing.T) {
	p := &Program{
		Entry:   0x1000,
		Code:    []uint32{EncNOP(), EncHALT()},
		Symbols: map[string]uint64{"zeta": 0x1004, "alpha": 0x1004, "main": 0x1000},
	}
	want := "main:\n  0x00001000: nop\nalpha:\nzeta:\n  0x00001004: halt\n"
	for i := 0; i < 20; i++ {
		out, err := DisassembleProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if out != want {
			t.Fatalf("listing:\n%s\nwant:\n%s", out, want)
		}
	}
}

func TestDisassembleInvalidWord(t *testing.T) {
	if _, err := Disassemble(0, uint32(NumOps)<<26); err == nil {
		t.Error("invalid word disassembled without error")
	}
}

// Property: every encodable instruction disassembles without error and
// non-branch forms contain their mnemonic.
func TestDisassembleCoversAllOpcodes(t *testing.T) {
	words := []uint32{}
	for op := Op(0); op < NumOps; op++ {
		switch op {
		case OpB, OpBL:
			words = append(words, EncB(op, 1))
		case OpBCC:
			words = append(words, EncBCC(CondEQ, 1))
		case OpCBZ, OpCBNZ:
			words = append(words, EncCB(op, X(1), 1))
		case OpBR:
			words = append(words, EncBR(X(1)))
		case OpRET:
			words = append(words, EncRET())
		case OpMOVZ, OpMOVK:
			words = append(words, EncMov(op, X(1), 5, 1))
		case OpLDRB, OpLDRW, OpLDRX, OpSTRB, OpSTRW, OpSTRX, OpLDRV, OpSTRV:
			words = append(words, EncMem(op, X(1), X(2), 8))
		case OpADDI, OpSUBI, OpANDI, OpORRI, OpEORI, OpLSLI, OpLSRI, OpCMPI:
			words = append(words, EncI(op, X(1), X(2), 3))
		default:
			words = append(words, EncR(op, X(1), X(2), X(3)))
		}
	}
	for _, w := range words {
		if _, err := Disassemble(0x1000, w); err != nil {
			t.Errorf("word %#x: %v", w, err)
		}
	}
}
