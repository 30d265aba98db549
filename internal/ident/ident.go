package ident

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/multiset"
)

// ID is a process identifier. Identifiers are compared by value; distinct
// processes may hold equal IDs.
type ID string

// Anonymous is the default identifier ⊥ shared by every process of an
// anonymous system. A process lacking an identity is modelled as carrying
// Anonymous, exactly as the paper does.
const Anonymous ID = "⊥"

// Assignment is an identity assignment for n processes: Assignment[p] is
// id(p) for the process with internal index p. Internal indexes exist only
// in the formalization (the set Π); algorithms never observe them.
type Assignment []ID

// N returns the number of processes n = |Π|.
func (a Assignment) N() int { return len(a) }

// I returns I(S) for S = Π: the multiset of all identities in the system.
func (a Assignment) I() *multiset.Multiset[ID] {
	return a.ISub(allIndexes(len(a)))
}

// ISub returns I(S) for the subset S of process indexes.
func (a Assignment) ISub(s []int) *multiset.Multiset[ID] {
	m := multiset.New[ID]()
	for _, p := range s {
		m.Add(a[p])
	}
	return m
}

// DistinctCount returns ℓ, the number of distinct identifiers in use.
func (a Assignment) DistinctCount() int {
	return a.I().Distinct()
}

// Validate reports an error for malformed assignments (empty, or empty ID).
func (a Assignment) Validate() error {
	if len(a) == 0 {
		return fmt.Errorf("ident: assignment has no processes")
	}
	for p, x := range a {
		if x == "" {
			return fmt.Errorf("ident: process %d has empty identifier", p)
		}
	}
	return nil
}

// Unique returns the classical assignment with n distinct identifiers
// p1..pn (the AS[∅] extreme of homonymy).
func Unique(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = ID(fmt.Sprintf("p%03d", i+1))
	}
	return a
}

// AnonymousN returns the anonymous assignment: n processes all carrying ⊥
// (the AAS[∅] extreme of homonymy).
func AnonymousN(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = Anonymous
	}
	return a
}

// Balanced returns a homonymous assignment with ℓ distinct identifiers
// g001..gℓ (three digits at least) spread as evenly as possible over n
// processes: process i carries identifier i mod ℓ + 1. The ℓ strings are
// formatted once. It panics if ℓ < 1 or ℓ > n, which are programming
// errors in experiment setup.
func Balanced(n, l int) Assignment {
	if l < 1 || l > n {
		panic(fmt.Sprintf("ident: Balanced(%d, %d): need 1 <= l <= n", n, l))
	}
	names := make([]ID, l)
	for j := range names {
		names[j] = ID(fmt.Sprintf("g%03d", j+1))
	}
	a := make(Assignment, n)
	for i := range a {
		a[i] = names[i%l]
	}
	return a
}

// Random returns an assignment where each process independently draws its
// identifier uniformly from a space of the given size, modelling randomly
// generated identifiers that may collide. space must be >= 1.
func Random(n, space int, r *rand.Rand) Assignment {
	if space < 1 {
		panic(fmt.Sprintf("ident: Random space %d < 1", space))
	}
	a := make(Assignment, n)
	for i := range a {
		a[i] = ID(fmt.Sprintf("r%04d", r.Intn(space)+1))
	}
	return a
}

// Domains returns an assignment grouping processes into named domains,
// sized by the sizes slice — the privacy-by-domain scenario of [14] cited
// in the paper, where every user of a domain shares the domain identifier.
func Domains(sizes map[string]int) Assignment {
	names := make([]string, 0, len(sizes))
	for d := range sizes {
		names = append(names, d)
	}
	sort.Strings(names)
	var a Assignment
	for _, d := range names {
		for i := 0; i < sizes[d]; i++ {
			a = append(a, ID(d))
		}
	}
	return a
}

func allIndexes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
