package ident

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// homonyms counts the processes carrying id by scanning a, independently
// of the multiset I() builds.
func homonyms(a Assignment, id ID) int {
	c := 0
	for _, x := range a {
		if x == id {
			c++
		}
	}
	return c
}

func TestUnique(t *testing.T) {
	a := Unique(5)
	if a.N() != 5 {
		t.Fatalf("N = %d, want 5", a.N())
	}
	if got := a.DistinctCount(); got != 5 {
		t.Errorf("DistinctCount = %d, want 5", got)
	}
	for _, id := range a {
		if a.I().Count(id) != 1 {
			t.Errorf("Count(%s) = %d, want 1", id, a.I().Count(id))
		}
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAnonymousN(t *testing.T) {
	a := AnonymousN(4)
	if got := a.DistinctCount(); got != 1 {
		t.Errorf("DistinctCount = %d, want 1", got)
	}
	if a.I().Count(Anonymous) != 4 {
		t.Errorf("Count(⊥) = %d, want 4", a.I().Count(Anonymous))
	}
	if got := homonyms(a, Anonymous); got != 4 {
		t.Errorf("homonyms(⊥) = %d, want 4", got)
	}
}

func TestBalanced(t *testing.T) {
	tests := []struct {
		n, l int
	}{
		{6, 3}, {7, 3}, {5, 1}, {5, 5}, {1, 1}, {10, 4},
	}
	for _, tt := range tests {
		a := Balanced(tt.n, tt.l)
		if a.N() != tt.n {
			t.Errorf("Balanced(%d,%d).N = %d", tt.n, tt.l, a.N())
		}
		if got := a.DistinctCount(); got != tt.l {
			t.Errorf("Balanced(%d,%d) distinct = %d, want %d", tt.n, tt.l, got, tt.l)
		}
		// Balance: group sizes differ by at most one.
		lo, hi := tt.n, 0
		for _, id := range a.I().Support() {
			m := a.I().Count(id)
			lo, hi = min(lo, m), max(hi, m)
		}
		if hi-lo > 1 {
			t.Errorf("Balanced(%d,%d) group sizes spread %d..%d", tt.n, tt.l, lo, hi)
		}
	}
}

func TestBalancedPanics(t *testing.T) {
	for _, bad := range [][2]int{{3, 0}, {3, 4}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Balanced(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			Balanced(bad[0], bad[1])
		}()
	}
}

func TestRandomCollides(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := Random(50, 10, r)
	if a.N() != 50 {
		t.Fatalf("N = %d", a.N())
	}
	// With 50 draws from a space of 10, collisions are certain.
	if got := a.DistinctCount(); got > 10 {
		t.Errorf("DistinctCount = %d, want <= 10", got)
	}
}

func TestDomains(t *testing.T) {
	a := Domains(map[string]int{"acme.org": 3, "web.net": 2})
	if a.N() != 5 {
		t.Fatalf("N = %d, want 5", a.N())
	}
	if a.I().Count("acme.org") != 3 || a.I().Count("web.net") != 2 {
		t.Errorf("unexpected multiplicities: %v", a)
	}
	// Deterministic ordering regardless of map iteration.
	b := Domains(map[string]int{"web.net": 2, "acme.org": 3})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Domains not deterministic: %v vs %v", a, b)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Assignment{}).Validate(); err == nil {
		t.Error("empty assignment should fail Validate")
	}
	if err := (Assignment{"a", ""}).Validate(); err == nil {
		t.Error("empty identifier should fail Validate")
	}
}

func TestISubAndInvariant(t *testing.T) {
	a := Balanced(7, 2)
	sub := []int{0, 2, 4}
	m := a.ISub(sub)
	if m.Len() != len(sub) {
		t.Errorf("|I(S)| = %d, want |S| = %d", m.Len(), len(sub))
	}
}

// The paper's basic invariant: |I(S)| = |S| for any subset S, and the sum of
// multiplicities equals n.
func TestQuickIdentityInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		var a Assignment
		switch r.Intn(4) {
		case 0:
			a = Unique(n)
		case 1:
			a = AnonymousN(n)
		case 2:
			a = Balanced(n, 1+r.Intn(n))
		default:
			a = Random(n, 1+r.Intn(8), r)
		}
		if a.I().Len() != n {
			return false
		}
		total := 0
		for _, id := range a.I().Support() {
			total += a.I().Count(id)
			if a.I().Count(id) != homonyms(a, id) {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBalancedFormatsOnce pins Balanced's identifiers — g001..gℓ, process
// i carrying the (i mod ℓ + 1)-th — and that it formats each of the ℓ
// strings once, not once per process: at n = 10,000 and ℓ = 10 it makes a
// few dozen allocations where a Sprintf per process made 10,000.
func TestBalancedFormatsOnce(t *testing.T) {
	const n, l = 10_000, 10
	a := Balanced(n, l)
	for _, c := range []struct {
		i    int
		want ID
	}{{0, "g001"}, {9, "g010"}, {10, "g001"}, {n - 1, "g010"}} {
		if a[c.i] != c.want {
			t.Errorf("Balanced(%d, %d)[%d] = %q, want %q", n, l, c.i, a[c.i], c.want)
		}
	}
	if got := Balanced(1000, 1000)[999]; got != "g1000" {
		t.Errorf("Balanced(1000, 1000)[999] = %q, want g1000", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { Balanced(n, l) }); allocs > 3*l+2 {
		t.Errorf("Balanced(%d, %d) made %.0f allocations, want <= %d", n, l, allocs, 3*l+2)
	}
}
