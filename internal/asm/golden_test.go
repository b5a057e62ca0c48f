package asm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"tangled/internal/compile"
	"tangled/internal/farm/farmtest"
	"tangled/internal/isa"
)

// These goldens pin the assembler's complete output — words, source map,
// data marks and symbol table — over every program source the repository
// ships, under both codecs, plus the exact diagnostics for a table of
// malformed inputs. Any change to the assembler's internals must leave
// them byte-identical.

// hashProgram folds one assembled program into h in a fixed layout.
func hashProgram(h hash.Hash, name string, p *Program) {
	fmt.Fprintf(h, "%s\x00%d\x00", name, len(p.Words))
	var b [4]byte
	for _, w := range p.Words {
		binary.LittleEndian.PutUint16(b[:2], w)
		h.Write(b[:2])
	}
	for _, s := range p.Source {
		binary.LittleEndian.PutUint32(b[:], uint32(s))
		h.Write(b[:])
	}
	for _, d := range p.Data {
		if d {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s=%d\n", n, p.Symbols[n])
	}
}

type namedSrc struct{ name, src string }

func goldenCorpus() []namedSrc {
	var out []namedSrc
	for i := 0; i < farmtest.Programs; i++ {
		out = append(out, namedSrc{fmt.Sprintf("farmtest/%d", i), farmtest.Generate(farmtest.Seed(i))})
	}
	return out
}

func goldenExamples(t testing.TB) []namedSrc {
	paths, err := filepath.Glob("../../examples/*/*.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example sources found")
	}
	sort.Strings(paths)
	var out []namedSrc
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedSrc{filepath.ToSlash(p), string(b)})
	}
	return out
}

// fig10Source is the Figure 10 factoring program for n at the given ways:
// the first operand as wide as n, the second as wide as the ways leave
// room for. ok is false when n alone fills the ways.
func fig10Source(t testing.TB, n uint64, ways int) (src string, ok bool) {
	a := bits.Len64(n)
	b := min(a, ways-a)
	if b < 1 {
		return "", false
	}
	fr, err := compile.FactorProgram(n, ways, a, b, compile.Options{Reuse: true})
	if err != nil {
		t.Fatalf("factor program n=%d ways=%d: %v", n, ways, err)
	}
	return fr.Asm, true
}

func goldenFig10(t testing.TB) []namedSrc {
	var out []namedSrc
	for _, n := range []uint64{15, 77, 221} {
		for _, ways := range []int{6, 16, 20} {
			if src, ok := fig10Source(t, n, ways); ok {
				out = append(out, namedSrc{fmt.Sprintf("fig10/n%d/w%d", n, ways), src})
			}
		}
	}
	if len(out) != 7 {
		t.Fatalf("%d Figure 10 programs, want 7", len(out))
	}
	return out
}

// goldenFeatures exercises every directive and macro form, including nested
// user macros that pass their own arguments on as operand lists — the case
// where an expansion must not see its arguments overwritten by the lines it
// feeds back through the parser.
var goldenFeatures = []namedSrc{
	{"features/directives", `
	.equ LIMIT 0x20
	.equ STEP,-1
start:	loadi $1,LIMIT
	loadi $2,0x1234
	loadi $3,start
	lex $4,STEP
	brt $4,STEP
msg:	.ascii "a;b,c\n\t\0\\\""
	.word msg
	.word 0xBEEF
	.space 3
	.space LIMIT
	lex $5,';'   ; a comment after a char literal
end:	jumpf $1,start
	jumpt $2,end
	jump start
	br end
`},
	{"features/qat", `
	had @10,3
	and @2,@0,@1
	or @3,@4,@5
	xor @6,@7,@8
	not @9
	qand @11,@12,@13
	zero @14
	one @15
	cnot @16,@17
	ccnot @18,@19,@20
	swap @21,@22
	cswap @23,@24,@25
	mcnot @30,@31
	mccnot @32,@33,@34
	mswap @35,@36
	mswap @37,@37
	mcswap @38,@39,@40
	meas $1,@10
	next $2,@10
	pop $3,@254
	and $1,$2
	not $3
	sys
`},
	{"features/macros", `
	.macro pair d s
	copy \d,\s
	add \d,\s
	.endm
	.macro trio a b c
	pair \a,\b
	pair \b,\c
	pair \c,\a
	.endm
	.macro gate x y z
	and \x,\y,\z
	trio $1,$2,$3
	xor \z,\y,\x
	.endm
	.macro spin r n
	lex \r,\n
	lex $at,-1
loop$:	add \r,$at
	brt \r,loop$
	.endm
	.macro both c count
	lex \c,1
	lex \count,2
	spin \count,4
	.endm
	trio $4,$5,$6
	gate @1,@2,@3
	both $7,$8
	spin $9,3
	gate @200,@201,@255
	sys
`},
}

func TestAssembleGoldenImages(t *testing.T) {
	sets := []struct {
		name string
		srcs []namedSrc
		want map[string]string // codec name -> hex SHA-256
	}{
		{"farmtest", goldenCorpus(), map[string]string{
			"primary": "4b1dd5535f8a98a7d5ab3c83df7867ee579ee314024b8f637f8a22690fe047c5",
			"student": "4f4e34070109ee51a8a66f9678a48e3890db658f38da40de1b448e9a2371730e",
		}},
		{"examples", goldenExamples(t), map[string]string{
			"primary": "aa61bc13339675894662921280de122e56b47496cebb97ca284b45695b813b76",
			"student": "f46ca3412e1eca1b134d5e3f9cd81d728c29f2f13d16e10246c1f2dceb846c04",
		}},
		{"features", goldenFeatures, map[string]string{
			"primary": "0ddd2ce14dd8fed157b2641cf9a65a01c3951fb80afb0c1c61b3be7f2ed9118a",
			"student": "49cd26e2c0fbb6649e8d8da0d976b572bdd940215789b5c5dd117fc4b40d59e2",
		}},
		{"fig10", goldenFig10(t), map[string]string{
			"primary": "b02ab4072cf0cb84b4413188b33b2b0c5e03e17c9e9c23de4087768da55cf00b",
			"student": "c66ec49e9aef9b6a8b5862dfae46f6604a9b1ef7b1430446a13f1c0929faf172",
		}},
	}
	for _, set := range sets {
		for _, enc := range []isa.Encoding{isa.Primary, isa.Student} {
			h := sha256.New()
			for _, s := range set.srcs {
				p, err := AssembleWith(s.src, enc)
				if err != nil {
					t.Fatalf("%s %s: %v", s.name, enc.Name(), err)
				}
				hashProgram(h, s.name, p)
			}
			got := fmt.Sprintf("%x", h.Sum(nil))
			if want := set.want[enc.Name()]; got != want {
				t.Errorf("%s/%s: image hash %s, want %s", set.name, enc.Name(), got, want)
			}
		}
	}
}

func TestAssembleGoldenErrors(t *testing.T) {
	cases := []struct {
		name, src string
		want      ErrorList
	}{
		{"bad register", "add $16,$1\n", ErrorList{{1, 5, "add: bad register \"$16\""}}},
		{"bad qat register", "and @1,@256,@3\n", ErrorList{{1, 8, "and: bad Qat register \"@256\""}}},
		{"bad immediate", "lex $1,300\n", ErrorList{{1, 8, "lex: immediate 300 does not fit in 8 bits"}}},
		{"bad immediate text", "lex $1,12z\n", ErrorList{{1, 8, "lex: bad immediate \"12z\""}}},
		{"undefined label", "  brt $1,nowhere\n", ErrorList{{1, 10, "undefined label or constant \"nowhere\""}}},
		{"undefined word label", ".word missing\n", ErrorList{{1, 7, "undefined label or constant \"missing\""}}},
		{"branch out of range", "brt $1,far\n.space 200\nfar: sys\n",
			ErrorList{{1, 8, "branch to \"far\" out of range (200 words); use jump"}}},
		{"macro arity", ".macro pair a b\n add \\a,\\b\n.endm\npair $1\n",
			ErrorList{{4, 0, "macro pair wants 2 argument(s), got 1"}}},
		{"macro recursion", ".macro loop x\n loop \\x\n.endm\nloop $1\n",
			ErrorList{{4, 0, "macro loop: expansion too deep (recursive?)"}}},
		{"error inside macro body", ".macro bad r\n add \\r,$99\n.endm\n\tbad $1\n",
			ErrorList{{4, 8, "add: bad register \"$99\""}}},
		{"unknown mnemonic", "frob $1\n", ErrorList{{1, 1, "unknown mnemonic \"frob\""}}},
		{"operand count", "add $1\n", ErrorList{{1, 1, "add wants 2 operand(s), got 1"}}},
		{"several errors", "add $1\nlex $2,999\nbrt $1,gone\n", ErrorList{
			{1, 1, "add wants 2 operand(s), got 1"},
			{2, 8, "lex: immediate 999 does not fit in 8 bits"},
		}},
		{"unterminated macro", ".macro open a\n add \\a,\\a\n", ErrorList{{3, 0, "unterminated .macro \"open\""}}},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		el, ok := err.(ErrorList)
		if !ok {
			t.Errorf("%s: got %v (%T), want an ErrorList", c.name, err, err)
			continue
		}
		if !reflect.DeepEqual(el, c.want) {
			t.Errorf("%s: got %#v, want %#v", c.name, el, c.want)
		}
	}
}
