package aob

import (
	"math/rand"
	"testing"
)

func TestVectorSetInternsByContent(t *testing.T) {
	s := NewVectorSet()
	r := rand.New(rand.NewSource(5))
	var members []*Vector
	for ways := 4; ways <= 10; ways++ {
		for i := 0; i < 4; i++ {
			v := randVector(r, ways)
			got, added := s.Intern(v)
			if !added || got != v {
				t.Fatalf("ways=%d: fresh vector not adopted", ways)
			}
			members = append(members, v)
		}
	}
	for _, m := range members {
		got, added := s.Intern(m.Clone())
		if added || got != m {
			t.Fatalf("equal copy of %s not resolved to its member", m)
		}
	}
	if s.Len() != len(members) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(members))
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatalf("Len after Clear = %d", s.Len())
	}
	if _, added := s.Intern(members[0].Clone()); !added {
		t.Fatal("Clear kept a member")
	}
}

// TestVectorSetWaysDistinct: the all-zero vectors of 0..6 ways share one
// all-zero storage word, yet are distinct members.
func TestVectorSetWaysDistinct(t *testing.T) {
	s := NewVectorSet()
	for ways := 0; ways <= 6; ways++ {
		if _, added := s.Intern(New(ways)); !added {
			t.Fatalf("zero vector of %d ways resolved to another width", ways)
		}
	}
}

// TestVectorSetBucketResolvesByEqual plants a member with different content
// in a bucket by mutating it after it was added: a later intern of the
// bucket's original content must not return it.
func TestVectorSetBucketResolvesByEqual(t *testing.T) {
	s := NewVectorSet()
	planted := HadVector(8, 3)
	s.Intern(planted)
	planted.Not()
	v := HadVector(8, 3)
	if got, added := s.Intern(v); got == planted || !added {
		t.Fatal("hash match returned a member with different content")
	}
	if got, _ := s.Intern(HadVector(8, 3)); got != v {
		t.Fatal("second intern of the content missed the member it added")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestVectorSetHitAllocatesNothing(t *testing.T) {
	s := NewVectorSet()
	m := HadVector(MaxWays, 7)
	s.Intern(m)
	probe := m.Clone()
	if a := testing.AllocsPerRun(100, func() { s.Intern(probe) }); a != 0 {
		t.Fatalf("hit allocated %.1f times", a)
	}
}
