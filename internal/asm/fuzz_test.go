package asm

import (
	"reflect"
	"testing"
)

// FuzzAssemble checks that Assemble never panics on arbitrary source, and
// that assembly is deterministic: a source that assembles yields an equal
// program every time.
func FuzzAssemble(f *testing.F) {
	for _, s := range []string{
		".org 0x1000\nla x1, 10\nloop:\nsubi x1, x1, #1\ncbnz x1, loop\nhalt\n",
		".equ BUF, 0x2000000\n.org 0x1000\nla x20, BUF\nldrx x2, [x20, #8]\nhalt\n.data BUF\n.quad BUF+8\n.space 16, 0xAB\n.word 7\n.byte 1\n",
		"b.eq done\ndone: halt\n", "movz x1, #0xbeef, lsl #16\nret\n", "ldrxr x1, [x2, x3]\nbr x1\n",
		".data", ".org 1\nadd x1\n", "l: l:", "x: .quad x", "fadd v1, v2, v3 ; c\n// c\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		again, err := Assemble(src)
		if err != nil {
			t.Fatalf("second assembly of %q failed: %v", src, err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("two assemblies of %q differ:\n%+v\n%+v", src, p, again)
		}
	})
}
