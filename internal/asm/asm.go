// Package asm implements a small two-pass assembler for the racesim ISA.
//
// Source syntax, one statement per line ("//" and ";" start comments):
//
//	.org  0x1000          set the code origin (entry point); must precede code
//	.equ  NAME, expr      define a constant
//	.data 0x80000         switch to a data segment at the given address
//	.quad expr            emit an 8-byte little-endian value (data mode)
//	.word expr            emit a 4-byte value (data mode)
//	.byte expr            emit a 1-byte value (data mode)
//	.space N [, fill]     emit N fill bytes (data mode)
//	label:                define a label at the current location
//
//	add   x1, x2, x3      integer R-type
//	addi  x1, x2, #42     integer immediate
//	movz  x1, #0xbeef     optionally: movz x1, #v, lsl #16/#32/#48
//	mov   x1, x2          pseudo: orr x1, x2, xzr
//	mov   x1, #imm        pseudo: movz
//	la    x1, label       pseudo: movz+movk, loads a 32-bit address
//	ldrx  x1, [x2, #8]    memory, immediate offset (offset optional)
//	ldrxr x1, [x2, x3]    memory, register offset
//	fadd  v1, v2, v3      floating point
//	b     label           direct branch; b.eq/b.ne/b.lt/b.ge/b.gt/b.le
//	cbz   x1, label       compare-and-branch
//	bl    label / br x1 / ret / nop / halt
//
// Immediates accept decimal, 0x hex, negative values, and .equ constants.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"racesim/internal/isa"
)

// Error describes an assembly error with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type statement struct {
	line   int
	label  string   // non-empty for label definitions
	mnem   string   // mnemonic or directive
	args   []string // raw operand strings
	isDir  bool
	isInst bool
}

// Assemble translates source text into an executable program.
func Assemble(src string) (*isa.Program, error) {
	a := &assembler{
		consts:  map[string]int64{},
		symbols: map[string]uint64{},
		org:     0x1000,
	}
	stmts, err := a.parse(src)
	if err != nil {
		return nil, err
	}
	if err := a.layout(stmts); err != nil {
		return nil, err
	}
	return a.emit(stmts)
}

// MustAssemble is Assemble that panics on error, for generators whose
// source is constructed programmatically and must be valid.
func MustAssemble(src string) *isa.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// maxDataBytes bounds the initialized data one program may declare, so
// a hostile or mistyped .space cannot exhaust memory.
const maxDataBytes = 64 << 20

type assembler struct {
	consts  map[string]int64
	symbols map[string]uint64
	org     uint64
	orgSet  bool
}

func (a *assembler) parse(src string) ([]statement, error) {
	var stmts []statement
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		s := raw
		if j := strings.Index(s, "//"); j >= 0 {
			s = s[:j]
		}
		if j := strings.IndexByte(s, ';'); j >= 0 {
			s = s[:j]
		}
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		// Labels may share a line with an instruction: "loop: add x1, x1, x2".
		for {
			j := strings.IndexByte(s, ':')
			if j < 0 {
				break
			}
			name := strings.TrimSpace(s[:j])
			if !isIdent(name) {
				return nil, &Error{line, fmt.Sprintf("invalid label %q", name)}
			}
			stmts = append(stmts, statement{line: line, label: name})
			s = strings.TrimSpace(s[j+1:])
		}
		if s == "" {
			continue
		}
		mnem, rest, _ := strings.Cut(s, " ")
		mnem = strings.ToLower(strings.TrimSpace(mnem))
		var args []string
		rest = strings.TrimSpace(rest)
		if rest != "" {
			for _, p := range splitArgs(rest) {
				args = append(args, strings.TrimSpace(p))
			}
		}
		stmts = append(stmts, statement{
			line: line, mnem: mnem, args: args,
			isDir:  strings.HasPrefix(mnem, "."),
			isInst: !strings.HasPrefix(mnem, "."),
		})
	}
	return stmts, nil
}

// splitArgs splits on commas that are not inside brackets.
func splitArgs(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// instWords returns how many instruction words a mnemonic expands to.
func instWords(mnem string) int {
	if mnem == "la" {
		return 2 // movz + movk
	}
	return 1
}

// layout performs pass 1: assign addresses to labels.
func (a *assembler) layout(stmts []statement) error {
	inData := false
	var codeCursor, dataCursor, dataBytes uint64
	codeStarted := false
	for _, st := range stmts {
		var size uint64 // data bytes the statement emits
		switch {
		case st.label != "":
			addr := codeCursor
			if inData {
				addr = dataCursor
			} else {
				if !codeStarted {
					codeCursor = a.org
					addr = codeCursor
				}
			}
			if _, dup := a.symbols[st.label]; dup {
				return &Error{st.line, fmt.Sprintf("duplicate label %q", st.label)}
			}
			a.symbols[st.label] = addr
		case st.isDir:
			switch st.mnem {
			case ".org":
				if codeStarted {
					return &Error{st.line, ".org after code"}
				}
				v, err := a.eval(st.args, st.line, 1)
				if err != nil {
					return err
				}
				a.org = uint64(v[0])
				a.orgSet = true
			case ".equ":
				if len(st.args) != 2 || !isIdent(st.args[0]) {
					return &Error{st.line, ".equ NAME, value"}
				}
				v, err := a.evalExpr(st.args[1], st.line)
				if err != nil {
					return err
				}
				a.consts[st.args[0]] = v
			case ".data":
				v, err := a.eval(st.args, st.line, 1)
				if err != nil {
					return err
				}
				inData = true
				dataCursor = uint64(v[0])
			case ".quad":
				size = 8
			case ".word":
				size = 4
			case ".byte":
				size = 1
			case ".space":
				if len(st.args) < 1 || len(st.args) > 2 {
					return &Error{st.line, ".space N [, fill]"}
				}
				v, err := a.evalExpr(st.args[0], st.line)
				if err != nil {
					return err
				}
				if v < 0 || v > maxDataBytes {
					return &Error{st.line, fmt.Sprintf(".space %d out of [0, %d]", v, maxDataBytes)}
				}
				size = uint64(v)
			default:
				return &Error{st.line, fmt.Sprintf("unknown directive %s", st.mnem)}
			}
		case st.isInst:
			if inData {
				return &Error{st.line, "instruction inside .data section"}
			}
			if !codeStarted {
				codeCursor = a.org
				codeStarted = true
			}
			codeCursor += uint64(instWords(st.mnem)) * isa.InstSize
		}
		dataCursor += size
		if dataBytes += size; dataBytes > maxDataBytes {
			return &Error{st.line, fmt.Sprintf("more than %d bytes of data", maxDataBytes)}
		}
	}
	return nil
}

func (a *assembler) eval(args []string, line, want int) ([]int64, error) {
	if len(args) != want {
		return nil, &Error{line, fmt.Sprintf("want %d operands, got %d", want, len(args))}
	}
	out := make([]int64, len(args))
	for i, s := range args {
		v, err := a.evalExpr(s, line)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// evalExpr evaluates an immediate expression: a number, a constant, a
// label, or sums/differences of those ("#" prefixes are stripped).
func (a *assembler) evalExpr(s string, line int) (int64, error) {
	s = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), "#"))
	if s == "" {
		return 0, &Error{line, "empty expression"}
	}
	// Simple left-to-right +/- expression split.
	total := int64(0)
	sign := int64(1)
	term := strings.Builder{}
	flush := func() error {
		t := strings.TrimSpace(term.String())
		term.Reset()
		if t == "" {
			return &Error{line, fmt.Sprintf("bad expression %q", s)}
		}
		v, err := a.evalTerm(t, line)
		if err != nil {
			return err
		}
		total += sign * v
		return nil
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c == '+' || c == '-') && term.Len() > 0 {
			if err := flush(); err != nil {
				return 0, err
			}
			if c == '+' {
				sign = 1
			} else {
				sign = -1
			}
			continue
		}
		if c == '-' && term.Len() == 0 && i == 0 {
			sign = -1
			continue
		}
		term.WriteByte(c)
	}
	if err := flush(); err != nil {
		return 0, err
	}
	return total, nil
}

func (a *assembler) evalTerm(t string, line int) (int64, error) {
	if v, err := strconv.ParseInt(t, 0, 64); err == nil {
		return v, nil
	}
	if v, ok := a.consts[t]; ok {
		return v, nil
	}
	if v, ok := a.symbols[t]; ok {
		return int64(v), nil
	}
	return 0, &Error{line, fmt.Sprintf("undefined symbol %q", t)}
}
