package oracle

import (
	"math/rand"
	"testing"

	"tangled/internal/qat"
)

const testRegs = 8

// backendSet builds one of every representation at the given ways: the
// naive reference, the raw SWAR kernels, and the Qat coprocessor on its
// dense, RE, and RE-with-aggressive-spill register files.
func backendSet(t *testing.T, ways int) []Backend {
	t.Helper()
	set := []Backend{
		NewRef(ways, testRegs),
		NewDense(ways, testRegs),
	}
	qd, err := NewQat(qat.Config{Ways: ways, Backend: qat.BackendDense}, testRegs)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := NewQat(qat.Config{Ways: ways, Backend: qat.BackendRE, ChunkWays: ways / 2, SpillRuns: -1}, testRegs)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := NewQat(qat.Config{Ways: ways, Backend: qat.BackendRE, ChunkWays: ways / 2, SpillRuns: 1}, testRegs)
	if err != nil {
		t.Fatal(err)
	}
	return append(set, qd, qr, qs)
}

func TestPropertiesAcrossBackends(t *testing.T) {
	checks := []struct {
		name string
		fn   func(Backend) error
	}{
		{"de-morgan", CheckDeMorgan},
		{"xor-add-mod-2", CheckXorAddMod2},
		{"next-enumeration", CheckNextEnumeration},
		{"popafter-monotone", CheckPopAfterMonotone},
	}
	// qat.Config reads Ways 0 as "full hardware", so the qat-backed set
	// starts at 1; literal 0-way vectors are covered by the aob/re suites.
	for _, ways := range []int{1, 2, 5, 8, 11} {
		for seed := int64(0); seed < 3; seed++ {
			for _, c := range checks {
				// Fresh backends per check: properties mutate scratch regs.
				for _, b := range backendSet(t, ways) {
					if err := Scramble(b, seed*31+int64(ways), 40, testRegs); err != nil {
						t.Fatalf("ways=%d seed=%d %s: %v", ways, seed, b.Name(), err)
					}
					if err := c.fn(b); err != nil {
						t.Fatalf("ways=%d seed=%d check %s: %v", ways, seed, c.name, err)
					}
				}
			}
		}
	}
}

func TestRandomSequencesAcrossBackends(t *testing.T) {
	for _, ways := range []int{1, 3, 6, 9} {
		r := rand.New(rand.NewSource(int64(ways) + 5))
		for trial := 0; trial < 10; trial++ {
			data := make([]byte, 90)
			r.Read(data)
			seq := DecodeSequence(data, ways, testRegs)
			if err := RunSequence(seq, backendSet(t, ways)...); err != nil {
				t.Fatalf("ways=%d trial %d: %v", ways, trial, err)
			}
		}
	}
}

// TestScrambleDeterminism pins that Scramble is pure in its seed: the whole
// differential method rests on every backend seeing the same stream.
func TestScrambleDeterminism(t *testing.T) {
	a, b := NewRef(6, testRegs), NewRef(6, testRegs)
	if err := Scramble(a, 42, 60, testRegs); err != nil {
		t.Fatal(err)
	}
	if err := Scramble(b, 42, 60, testRegs); err != nil {
		t.Fatal(err)
	}
	if err := Diff(a, b); err != nil {
		t.Fatal(err)
	}
}

// TestDiffReportsDivergence makes sure the comparator actually fires.
func TestDiffReportsDivergence(t *testing.T) {
	a, b := NewRef(4, 2), NewRef(4, 2)
	if err := a.Apply(Inst{Op: OpOne, D: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Diff(a, b); err == nil {
		t.Fatal("Diff missed a divergent register")
	}
}
