package multiset

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Multiset is a bag of ordered, comparable elements. The element type must
// be ordered so that deterministic iteration, Min, and String are possible,
// which the algorithms rely on (e.g. HΩ picks the smallest trusted
// identifier as leader).
type Multiset[T cmp.Ordered] struct {
	counts map[T]int
	size   int
}

// New returns an empty multiset.
func New[T cmp.Ordered]() *Multiset[T] {
	return &Multiset[T]{counts: make(map[T]int)}
}

// From builds a multiset from the given elements, honouring repetitions.
//
//detlint:ignore unreached test support: fd, core, reduce and multiset tests build fixtures from element lists
func From[T cmp.Ordered](elems ...T) *Multiset[T] {
	m := New[T]()
	for _, e := range elems {
		m.Add(e)
	}
	return m
}

// Add inserts one instance of e.
func (m *Multiset[T]) Add(e T) {
	m.counts[e]++
	m.size++
}

// AddN inserts n instances of e. It panics if n is negative.
func (m *Multiset[T]) AddN(e T, n int) {
	if n < 0 {
		panic(fmt.Sprintf("multiset: AddN with negative count %d", n))
	}
	if n == 0 {
		return
	}
	m.counts[e] += n
	m.size += n
}

// Remove deletes one instance of e and reports whether an instance existed.
func (m *Multiset[T]) Remove(e T) bool {
	c, ok := m.counts[e]
	if !ok {
		return false
	}
	if c == 1 {
		delete(m.counts, e)
	} else {
		m.counts[e] = c - 1
	}
	m.size--
	return true
}

// Count returns the multiplicity mult(e) of e.
func (m *Multiset[T]) Count(e T) int { return m.counts[e] }

// Contains reports whether at least one instance of e is present.
func (m *Multiset[T]) Contains(e T) bool { return m.counts[e] > 0 }

// Len returns the total number of instances, |I(S)|.
func (m *Multiset[T]) Len() int { return m.size }

// Distinct returns the number of distinct elements.
func (m *Multiset[T]) Distinct() int { return len(m.counts) }

// Empty reports whether the multiset has no instances.
func (m *Multiset[T]) Empty() bool { return m.size == 0 }

// Elems returns all instances in sorted order, with repetitions.
func (m *Multiset[T]) Elems() []T {
	out := make([]T, 0, m.size)
	for _, e := range m.Support() {
		for i := 0; i < m.counts[e]; i++ {
			out = append(out, e)
		}
	}
	return out
}

// Support returns the distinct elements in sorted order.
func (m *Multiset[T]) Support() []T {
	keys := make([]T, 0, len(m.counts))
	for e := range m.counts {
		keys = append(keys, e)
	}
	slices.Sort(keys)
	return keys
}

// Min returns the smallest element and false if the multiset is empty.
func (m *Multiset[T]) Min() (T, bool) {
	var best T
	first := true
	//detlint:ignore maprange running min: commutative, associative and idempotent, so visit order cannot change the result
	for e := range m.counts {
		if first || e < best {
			best = e
			first = false
		}
	}
	return best, !first
}

// Clone returns an independent copy.
func (m *Multiset[T]) Clone() *Multiset[T] {
	c := &Multiset[T]{counts: make(map[T]int, len(m.counts)), size: m.size}
	for e, n := range m.counts {
		c.counts[e] = n
	}
	return c
}

// Equal reports whether m and o contain exactly the same instances.
func (m *Multiset[T]) Equal(o *Multiset[T]) bool {
	if m == o {
		return true
	}
	if m.size != o.size || len(m.counts) != len(o.counts) {
		return false
	}
	for e, n := range m.counts {
		if o.counts[e] != n {
			return false
		}
	}
	return true
}

// SubsetOf reports multiset inclusion m ⊆ o: every element of m appears in o
// with at least the same multiplicity.
func (m *Multiset[T]) SubsetOf(o *Multiset[T]) bool {
	if m.size > o.size {
		return false
	}
	for e, n := range m.counts {
		if o.counts[e] < n {
			return false
		}
	}
	return true
}

// Intersects reports whether m and o share at least one common element
// (ignoring multiplicities beyond one).
func (m *Multiset[T]) Intersects(o *Multiset[T]) bool {
	a, b := m, o
	if len(b.counts) < len(a.counts) {
		a, b = b, a
	}
	for e := range a.counts {
		if b.counts[e] > 0 {
			return true
		}
	}
	return false
}

// Union returns the multiset union: each element with multiplicity
// max(mult_m, mult_o).
func (m *Multiset[T]) Union(o *Multiset[T]) *Multiset[T] {
	out := m.Clone()
	for e, n := range o.counts {
		if n > out.counts[e] {
			out.size += n - out.counts[e]
			out.counts[e] = n
		}
	}
	return out
}

// Sum returns the additive union: each element with multiplicity
// mult_m + mult_o.
func (m *Multiset[T]) Sum(o *Multiset[T]) *Multiset[T] {
	out := m.Clone()
	//detlint:ignore maprange per-element addition into a cloned multiset: AddN is keyed commutative accumulation
	for e, n := range o.counts {
		out.AddN(e, n)
	}
	return out
}

// Counts returns a copy of the element→multiplicity map.
func (m *Multiset[T]) Counts() map[T]int {
	out := make(map[T]int, len(m.counts))
	for e, n := range m.counts {
		out[e] = n
	}
	return out
}

// Key returns a canonical string encoding of the multiset, usable as a map
// key. Two multisets are Equal iff their Keys are equal. The paper's Fig. 7
// uses a received multiset itself as a quorum label; Key is how labels are
// compared and stored.
func (m *Multiset[T]) Key() string {
	var b strings.Builder
	for i, e := range m.Support() {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%v*%d", e, m.counts[e])
	}
	return b.String()
}

// String renders the multiset as {a, a, b} style, sorted.
func (m *Multiset[T]) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range m.Elems() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v", e)
	}
	b.WriteByte('}')
	return b.String()
}

// Reset empties the multiset and keeps its storage for reuse.
func (m *Multiset[T]) Reset() {
	clear(m.counts)
	m.size = 0
}
