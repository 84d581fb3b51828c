package isa

import (
	"fmt"
	"slices"
	"strings"
)

// Disassemble renders the instruction word at pc as assembler text that
// the asm package can parse back (modulo label names: branch targets are
// rendered as absolute hex addresses, which the assembler accepts).
func Disassemble(pc uint64, word uint32) (string, error) {
	var d Decoder
	in, err := d.Decode(pc, word)
	if err != nil {
		return "", err
	}
	return in.Disassemble(), nil
}

// Disassemble renders a decoded instruction as assembler text.
func (in *Inst) Disassemble() string {
	rd := Reg(in.Word >> rdShift & regMask)
	rn := Reg(in.Word >> rnShift & regMask)
	rm := Reg(in.Word >> rmShift & regMask)
	v := func(r Reg) string { return (V0 + r).String() }

	switch in.Op {
	case OpADD, OpSUB, OpAND, OpORR, OpEOR, OpLSL, OpLSR, OpMUL, OpSDIV:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, rd, rn, rm)
	case OpCMP:
		return fmt.Sprintf("cmp %s, %s", rn, rm)
	case OpADDI, OpSUBI, OpANDI, OpORRI, OpEORI, OpLSLI, OpLSRI:
		return fmt.Sprintf("%s %s, %s, #%d", in.Op, rd, rn, in.Imm)
	case OpCMPI:
		return fmt.Sprintf("cmpi %s, #%d", rn, in.Imm)
	case OpMOVZ, OpMOVK:
		hw := in.Word >> hwShift & hwMask
		base := uint64(in.Imm) >> (16 * hw)
		if hw == 0 {
			return fmt.Sprintf("%s %s, #%d", in.Op, rd, base)
		}
		return fmt.Sprintf("%s %s, #%d, lsl #%d", in.Op, rd, base, 16*hw)
	case OpFADD, OpFSUB, OpFMUL, OpFDIV, OpVADD, OpVMUL:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, v(rd), v(rn), v(rm))
	case OpFSQRT, OpFMOV:
		return fmt.Sprintf("%s %s, %s", in.Op, v(rd), v(rn))
	case OpFCMP:
		return fmt.Sprintf("fcmp %s, %s", v(rn), v(rm))
	case OpFCVTZS:
		return fmt.Sprintf("fcvtzs %s, %s", rd, v(rn))
	case OpSCVTF:
		return fmt.Sprintf("scvtf %s, %s", v(rd), rn)
	case OpLDRB, OpLDRW, OpLDRX, OpSTRB, OpSTRW, OpSTRX:
		return fmt.Sprintf("%s %s, [%s, #%d]", in.Op, rd, rn, in.Imm)
	case OpLDRV, OpSTRV:
		return fmt.Sprintf("%s %s, [%s, #%d]", in.Op, v(rd), rn, in.Imm)
	case OpLDRXR, OpSTRXR:
		return fmt.Sprintf("%s %s, [%s, %s]", in.Op, rd, rn, rm)
	case OpB, OpBL:
		tgt, _ := in.StaticTarget()
		return fmt.Sprintf("%s %#x", in.Op, tgt)
	case OpBCC:
		tgt, _ := in.StaticTarget()
		return fmt.Sprintf("b.%s %#x", in.Cond, tgt)
	case OpCBZ, OpCBNZ:
		tgt, _ := in.StaticTarget()
		return fmt.Sprintf("%s %s, %#x", in.Op, rd, tgt)
	case OpBR:
		return fmt.Sprintf("br %s", rd)
	case OpRET:
		return "ret"
	case OpNOP:
		return "nop"
	case OpHALT:
		return "halt"
	}
	return fmt.Sprintf("?%#08x", in.Word)
}

// DisassembleProgram renders a whole program listing with addresses.
func DisassembleProgram(p *Program) (string, error) {
	var b strings.Builder
	var d Decoder
	// Invert the symbol table for label annotations. Several names may
	// share an address; each is printed, in sorted order, so the listing
	// does not depend on map iteration order.
	labels := map[uint64][]string{}
	for name, addr := range p.Symbols {
		labels[addr] = append(labels[addr], name)
	}
	for i, w := range p.Code {
		pc := p.Entry + uint64(i)*InstSize
		names := labels[pc]
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		in, err := d.Decode(pc, w)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %#08x: %s\n", pc, in.Disassemble())
	}
	return b.String(), nil
}
