// Integration tests: complete assembly programs exercising the Tangled/Qat
// toolchain end to end — assembler, functional machine, and the pipelined
// machine, which must agree instruction-for-instruction with the
// functional one on every program here.
package tangled_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/pipeline"
	"tangled/internal/qat"
)

// runBoth executes src on the functional machine and on every pipeline
// organization, checks they agree on architectural state, and returns the
// functional machine plus its output.
func runBoth(t *testing.T, src string, ways int) (*cpu.Machine, string) {
	t.Helper()
	var out bytes.Buffer
	ref, err := cpu.RunProgram(src, ways, 10_000_000, &out)
	if err != nil {
		t.Fatalf("functional: %v", err)
	}
	for _, stages := range []int{4, 5} {
		cfg := pipeline.Config{Config: qat.Config{Ways: ways}, Stages: stages, Forwarding: true,
			MulLatency: 1, QatNextLatency: 1}
		var pout bytes.Buffer
		p, err := pipeline.RunProgram(src, cfg, 100_000_000, &pout)
		if err != nil {
			t.Fatalf("%d-stage: %v", stages, err)
		}
		if p.Machine().Regs != ref.Regs {
			t.Fatalf("%d-stage register mismatch:\n%v\n%v", stages, p.Machine().Regs, ref.Regs)
		}
		if pout.String() != out.String() {
			t.Fatalf("%d-stage output mismatch: %q vs %q", stages, pout.String(), out.String())
		}
		if p.Stats.Insts != ref.Stats.Insts {
			t.Fatalf("%d-stage retired %d vs functional %d", stages, p.Stats.Insts, ref.Stats.Insts)
		}
	}
	return ref, out.String()
}

// TestIntegrationFibonacci computes fib(20) iteratively.
func TestIntegrationFibonacci(t *testing.T) {
	src := `
	lex $1,0          ; a
	lex $2,1          ; b
	lex $3,20         ; n
	lex $4,-1
	loop:
	copy $5,$2
	add $2,$1         ; b = a+b
	copy $1,$5        ; a = old b
	add $3,$4
	brt $3,loop
	copy $1,$1
	lex $0,1
	sys               ; print fib(20)
	lex $0,0
	sys
	`
	m, out := runBoth(t, src, 4)
	if int16(m.Regs[1]) != 6765 {
		t.Errorf("fib(20) = %d", int16(m.Regs[1]))
	}
	if out != "6765\n" {
		t.Errorf("output %q", out)
	}
}

// TestIntegrationFactorialRecursive uses the calling convention the
// register set implies: $sp stack, $ra return address, $rv return value.
func TestIntegrationFactorialRecursive(t *testing.T) {
	src := `
	loadi $sp,0x7F00  ; stack top
	lex $1,7          ; n = 7
	loadi $ra,back
	jump fact
	back:
	copy $1,$rv
	lex $0,1
	sys               ; print 5040
	lex $0,0
	sys

	; fact(n in $1) -> $rv, clobbers $2,$3
	fact:
	brt $1,recurse
	lex $rv,1         ; fact(0) = 1
	jumpr $ra
	recurse:
	lex $2,-1
	store $1,$sp      ; push n
	add $sp,$2
	store $ra,$sp     ; push ra
	add $sp,$2
	add $1,$2         ; n-1
	loadi $ra,ret
	jump fact
	ret:
	lex $2,1
	add $sp,$2
	load $ra,$sp      ; pop ra
	add $sp,$2
	load $1,$sp       ; pop n
	mul $rv,$1        ; careful: rv = fact(n-1); want rv *= n
	jumpr $ra
	`
	_, out := runBoth(t, src, 4)
	if out != "5040\n" {
		t.Errorf("output %q", out)
	}
}

// TestIntegrationMemset fills and verifies a memory region.
func TestIntegrationMemset(t *testing.T) {
	src := `
	loadi $1,0x4000   ; base
	lex $2,50         ; count
	loadi $3,0xBEEF
	lex $4,-1
	lex $5,1
	fill:
	store $3,$1
	add $1,$5
	add $2,$4
	brt $2,fill
	` + "\nlex $0,0\nsys\n"
	m, _ := runBoth(t, src, 4)
	for a := 0x4000; a < 0x4000+50; a++ {
		if m.Mem[a] != 0xBEEF {
			t.Fatalf("mem[%#x] = %#x", a, m.Mem[a])
		}
	}
	if m.Mem[0x4000+50] != 0 {
		t.Fatal("overran the region")
	}
}

// TestIntegrationHelloString walks a .word string and prints it char by
// char via sys.
func TestIntegrationHelloString(t *testing.T) {
	var data strings.Builder
	for _, c := range "hello qat\n" {
		fmt.Fprintf(&data, ".word %d\n", c)
	}
	src := `
	jump start
	msg:
	` + data.String() + `
	.word 0
	start:
	loadi $2,msg
	lex $3,1
	lex $0,2
	loop:
	load $1,$2
	brf $1,done
	sys
	add $2,$3
	br loop
	done:
	lex $0,0
	sys
	`
	_, out := runBoth(t, src, 4)
	if out != "hello qat\n" {
		t.Errorf("output %q", out)
	}
}

// TestIntegrationQatSearch uses superposition to find which 4-bit x
// satisfies x*3 == 12 (i.e. x=4), entirely in assembly: build x over
// channel sets 0-3, compute 3x with shift-add gates, compare to 12, and
// read the channel number.
func TestIntegrationQatSearch(t *testing.T) {
	src := `
	; x bits: H0..H3 in @1..@4
	had @1,0
	had @2,1
	had @3,2
	had @4,3
	; 3x = x + 2x: 2x bits are (0,x0,x1,x2,x3) -> 5-bit sum needed; compare
	; against constant 12 = 01100b on 5 bits of result (x<=15 -> 3x<=45,
	; need 6 bits; compare only to 12 so bits 4,5 must be 0).
	; s0 = x0
	; s1 = x1 XOR x0 ; c1 = x1 AND x0
	xor @10,@2,@1
	and @20,@2,@1
	; s2 = x2 XOR x1 XOR c1 ; c2 = majority(x2,x1,c1)
	xor @11,@3,@2
	xor @12,@11,@20
	and @21,@3,@2
	and @22,@11,@20
	or  @23,@21,@22
	; s3 = x3 XOR x2 XOR c2 ; c3 = majority
	xor @13,@4,@3
	xor @14,@13,@23
	and @24,@4,@3
	and @25,@13,@23
	or  @26,@24,@25
	; s4 = x3 XOR c3 ; c4 = x3 AND c3
	xor @15,@4,@26
	and @27,@4,@26
	; want 3x == 12 = b01100: s0=0 s1=0 s2=1 s3=1 s4=0 c4=0
	not @1            ; reuse @1 as NOT s0... wait @1 is x0 = s0
	; indicator: NOT s0 AND NOT s1 AND s2 AND s3 AND NOT s4 AND NOT c4
	not @10
	not @15
	not @27
	and @30,@1,@10
	and @31,@30,@12
	and @32,@31,@14
	and @33,@32,@15
	and @34,@33,@27
	lex $1,0
	next $1,@34       ; the only satisfying channel
	lex $0,1
	sys               ; print it (x=4 -> channel 4)
	lex $0,0
	sys
	`
	m, out := runBoth(t, src, 8)
	if out != "4\n" {
		t.Errorf("search found %q, want 4", out)
	}
	_ = m
}

// TestIntegrationBf16Polynomial evaluates 2x^2 - 3x + 1 at x=4 in bfloat16:
// 32 - 12 + 1 = 21.
func TestIntegrationBf16Polynomial(t *testing.T) {
	src := `
	lex $1,4
	float $1          ; x
	copy $2,$1
	mulf $2,$1        ; x^2
	lex $3,2
	float $3
	mulf $2,$3        ; 2x^2
	lex $4,3
	float $4
	mulf $4,$1        ; 3x
	negf $4
	addf $2,$4        ; 2x^2 - 3x
	lex $5,1
	float $5
	addf $2,$5        ; +1
	copy $1,$2
	int $1
	lex $0,1
	sys
	lex $0,0
	sys
	`
	_, out := runBoth(t, src, 4)
	if out != "21\n" {
		t.Errorf("polynomial = %q, want 21", out)
	}
}

// TestIntegrationHexImageRoundTrip assembles, serializes to the hex image
// format, reloads, and re-runs with identical results.
func TestIntegrationHexImageRoundTrip(t *testing.T) {
	src := "lex $1,21\nadd $1,$1\nlex $0,1\nsys\nlex $0,0\nsys\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := asm.WriteHex(&img, prog.Words); err != nil {
		t.Fatal(err)
	}
	words, err := asm.ReadHex(&img)
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(4)
	var out bytes.Buffer
	m.Out = &out
	if err := m.Load(&asm.Program{Words: words}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if out.String() != "42\n" {
		t.Errorf("round-tripped image printed %q", out.String())
	}
}

// TestIntegrationMultiCycleVsPipelineSpeedup quantifies the course-project
// progression: the pipelined machine beats the multi-cycle one by roughly
// the average state count per instruction.
func TestIntegrationMultiCycleVsPipelineSpeedup(t *testing.T) {
	src := strings.Repeat("add $1,$2\nxor $3,$4\nlex $5,9\n", 500) + "lex $0,0\nsys\n"
	ref, err := cpu.RunProgram(src, 4, 10_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{Config: qat.Config{Ways: 4}, Stages: 5, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	p, err := pipeline.RunProgram(src, cfg, 10_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(ref.Stats.MultiCycles) / float64(p.Stats.Cycles)
	// ALU instructions take 4 multi-cycle states; pipelined CPI ~1.
	if speedup < 3.5 || speedup > 4.5 {
		t.Errorf("pipeline speedup = %.2f, want ~4", speedup)
	}
	t.Logf("multi-cycle %d cycles vs pipelined %d cycles: speedup %.2fx",
		ref.Stats.MultiCycles, p.Stats.Cycles, speedup)
}

// TestIntegrationBubbleSort sorts eight words in memory in place.
func TestIntegrationBubbleSort(t *testing.T) {
	src := `
	.equ BASE 0x4000
	.equ N 8
	jump start
	data:
	.word 42
	.word 7
	.word -3
	.word 100
	.word 0
	.word -100
	.word 13
	.word 13
	start:
	; copy data to BASE
	loadi $1,data
	loadi $2,BASE
	lex $3,N
	lex $4,-1
	lex $5,1
	copyloop:
	load $6,$1
	store $6,$2
	add $1,$5
	add $2,$5
	add $3,$4
	brt $3,copyloop
	; bubble sort BASE..BASE+N-1 (signed)
	lex $7,N          ; outer counter
	outer:
	loadi $2,BASE
	lex $3,N
	add $3,$4         ; N-1 comparisons
	inner:
	load $6,$2        ; a = mem[p]
	copy $8,$2
	add $8,$5
	load $9,$8        ; b = mem[p+1]
	copy $10,$9
	slt $10,$6        ; b < a ?
	brf $10,noswap
	store $9,$2       ; swap
	store $6,$8
	noswap:
	add $2,$5
	add $3,$4
	brt $3,inner
	add $7,$4
	brt $7,outer
	lex $0,0
	sys
	`
	m, _ := runBoth(t, src, 4)
	want := []int16{-100, -3, 0, 7, 13, 13, 42, 100}
	for i, w := range want {
		if got := int16(m.Mem[0x4000+i]); got != w {
			t.Errorf("sorted[%d] = %d, want %d", i, got, w)
		}
	}
}

// TestIntegrationGCD computes gcd(462, 1071) = 21 with subtraction.
func TestIntegrationGCD(t *testing.T) {
	src := `
	loadi $1,462
	loadi $2,1071
	loop:
	copy $3,$1
	xor $3,$2
	brf $3,done       ; a == b
	copy $3,$1
	slt $3,$2         ; a < b ?
	brt $3,bless
	; a > b: a -= b
	copy $3,$2
	neg $3
	add $1,$3
	br loop
	bless:
	copy $3,$1
	neg $3
	add $2,$3         ; b -= a
	br loop
	done:
	copy $1,$1
	lex $0,1
	sys
	lex $0,0
	sys
	`
	m, out := runBoth(t, src, 4)
	if int16(m.Regs[1]) != 21 || out != "21\n" {
		t.Errorf("gcd = %d, out %q", int16(m.Regs[1]), out)
	}
}

// TestIntegrationUserMacroProgram drives the AIK-style macros through a
// full pipelined run.
func TestIntegrationUserMacroProgram(t *testing.T) {
	src := `
	.macro printint r
	copy $1,\r
	lex $0,1
	sys
	.endm
	.macro sumto r n
	lex \r,0
	lex $at,\n
	lex $9,-1
	loop$:
	add \r,$at
	add $at,$9
	brt $at,loop$
	.endm
	sumto $2,10
	printint $2
	lex $0,0
	sys
	`
	_, out := runBoth(t, src, 4)
	if out != "55\n" {
		t.Errorf("sum 1..10 printed %q", out)
	}
}

// TestIntegrationQatMacroPipeline runs the Section 5 reversible macros on
// the pipelined machine against native instructions.
func TestIntegrationQatMacroPipeline(t *testing.T) {
	prologue := "had @1,0\nhad @2,1\nhad @3,2\n"
	epilogue := "lex $1,0\npop $1,@1\nlex $2,0\npop $2,@2\nlex $0,0\nsys\n"
	native := prologue + "cswap @1,@2,@3\nccnot @2,@1,@3\n" + epilogue
	macro := prologue + "mcswap @1,@2,@3\nmccnot @2,@1,@3\n" + epilogue
	mn, _ := runBoth(t, native, 8)
	mm, _ := runBoth(t, macro, 8)
	if mn.Regs[1] != mm.Regs[1] || mn.Regs[2] != mm.Regs[2] {
		t.Error("macro and native forms disagree on the pipeline")
	}
}
