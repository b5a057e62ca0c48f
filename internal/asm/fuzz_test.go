package asm

import (
	"strings"
	"testing"
)

// FuzzAssemble: arbitrary source must produce a program or a diagnostic,
// never a panic; successful assemblies must disassemble and reassemble to
// the identical image (modulo data words, which disassemble as .word).
func FuzzAssemble(f *testing.F) {
	f.Add("add $1,$2\n")
	f.Add("lab: br lab\n")
	f.Add(".equ X 4\nlex $1,X\n.word X\n")
	f.Add("and @1,@2,@3\nnext $0,@80\n")
	f.Add(`.ascii "hi"` + "\n")
	f.Add("loadi $3,0xABCD\njumpf $1,done\ndone: sys\n")
	// Nested user macros that hand their own arguments on as operand lists:
	// every expansion re-enters the line parser, which reuses its operand
	// buffer, while the outer expansion still needs its arguments.
	f.Add(".macro pair d s\ncopy \\d,\\s\nadd \\d,\\s\n.endm\n" +
		".macro trio a b c\npair \\a,\\b\npair \\b,\\c\npair \\c,\\a\n.endm\n" +
		"trio $1,$2,$3\ntrio $4,$5,$6\n")
	f.Add(".macro inner q r\nswap \\q,\\r\n.endm\n" +
		".macro outer x y z\nand \\x,\\y,\\z\ninner \\z,\\y\nxor \\x,\\y,\\z\n.endm\n" +
		"outer @1,@2,@3\nouter @200,@201,@255\n")
	f.Add(".macro spin r n\nlex \\r,\\n\nlex $at,-1\nloop$: add \\r,$at\nbrt \\r,loop$\n.endm\n" +
		".macro twice a b\nspin \\a,3\nspin \\b,4\n.endm\ntwice $1,$2\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		dis := Disassemble(p.Words)
		p2, err := Assemble(strings.Join(dis, "\n"))
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\n%v", err, dis)
		}
		if len(p2.Words) != len(p.Words) {
			t.Fatalf("round trip length %d != %d", len(p2.Words), len(p.Words))
		}
		for i := range p.Words {
			if p.Words[i] != p2.Words[i] {
				t.Fatalf("round trip word %d: %04x != %04x", i, p2.Words[i], p.Words[i])
			}
		}
	})
}
