package multiset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicAddRemove(t *testing.T) {
	m := New[string]()
	if !m.Empty() {
		t.Fatal("new multiset should be empty")
	}
	m.Add("a")
	m.Add("a")
	m.Add("b")
	if got := m.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if got := m.Distinct(); got != 2 {
		t.Errorf("Distinct = %d, want 2", got)
	}
	if got := m.Count("a"); got != 2 {
		t.Errorf("Count(a) = %d, want 2", got)
	}
	if !m.Remove("a") {
		t.Error("Remove(a) should succeed")
	}
	if got := m.Count("a"); got != 1 {
		t.Errorf("Count(a) after remove = %d, want 1", got)
	}
	if m.Remove("zz") {
		t.Error("Remove of absent element should report false")
	}
	if !m.Remove("a") || m.Contains("a") {
		t.Error("second Remove(a) should empty the element")
	}
	if got := m.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
}

func TestAddN(t *testing.T) {
	m := New[int]()
	m.AddN(7, 3)
	m.AddN(7, 0)
	if got := m.Count(7); got != 3 {
		t.Errorf("Count(7) = %d, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddN(-1) should panic")
		}
	}()
	m.AddN(1, -1)
}

func TestFromAndElems(t *testing.T) {
	m := From("b", "a", "b", "c")
	want := []string{"a", "b", "b", "c"}
	if got := m.Elems(); !reflect.DeepEqual(got, want) {
		t.Errorf("Elems = %v, want %v", got, want)
	}
	if got := m.Support(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Support = %v", got)
	}
}

func TestMin(t *testing.T) {
	if _, ok := New[int]().Min(); ok {
		t.Error("Min of empty multiset should report false")
	}
	m := From(5, 3, 9, 3)
	if got, ok := m.Min(); !ok || got != 3 {
		t.Errorf("Min = %d,%v want 3,true", got, ok)
	}
}

func TestSubsetOf(t *testing.T) {
	tests := []struct {
		name string
		a, b *Multiset[string]
		want bool
	}{
		{"empty in empty", New[string](), New[string](), true},
		{"empty in any", New[string](), From("x"), true},
		{"equal", From("a", "b"), From("b", "a"), true},
		{"plain subset", From("a"), From("a", "b"), true},
		{"multiplicity respected", From("a", "a"), From("a", "b"), false},
		{"multiplicity satisfied", From("a", "a"), From("a", "a", "b"), true},
		{"missing element", From("z"), From("a", "b"), false},
		{"larger not subset", From("a", "b", "c"), From("a", "b"), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.SubsetOf(tt.b); got != tt.want {
				t.Errorf("%v ⊆ %v = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestIntersects(t *testing.T) {
	tests := []struct {
		name string
		a, b *Multiset[int]
		want bool
	}{
		{"disjoint", From(1, 2), From(3, 4), false},
		{"common element", From(1, 2), From(2, 3), true},
		{"empty vs any", New[int](), From(1), false},
		{"self", From(9), From(9), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Intersects(tt.b); got != tt.want {
				t.Errorf("Intersects = %v, want %v", got, tt.want)
			}
			if got := tt.b.Intersects(tt.a); got != tt.want {
				t.Errorf("Intersects (reversed) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIntersectUnionSum(t *testing.T) {
	a := From("a", "a", "b")
	b := From("a", "b", "b", "c")
	if got := a.Union(b); !got.Equal(From("a", "a", "b", "b", "c")) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Sum(b); !got.Equal(From("a", "a", "a", "b", "b", "b", "c")) {
		t.Errorf("Sum = %v", got)
	}
	// Inputs untouched.
	if !a.Equal(From("a", "a", "b")) || !b.Equal(From("a", "b", "b", "c")) {
		t.Error("operations must not mutate their inputs")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := From(1, 2)
	c := a.Clone()
	c.Add(3)
	if a.Contains(3) {
		t.Error("mutating clone must not affect original")
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Error("clone must keep original contents")
	}
}

func TestKeyCanonical(t *testing.T) {
	a := From("b", "a", "a")
	b := From("a", "b", "a")
	if a.Key() != b.Key() {
		t.Errorf("Keys differ for equal multisets: %q vs %q", a.Key(), b.Key())
	}
	c := From("a", "b")
	if a.Key() == c.Key() {
		t.Error("Keys equal for different multisets")
	}
	if New[string]().Key() != "" {
		t.Error("empty multiset Key should be empty string")
	}
}

func TestString(t *testing.T) {
	if got := From("b", "a").String(); got != "{a, b}" {
		t.Errorf("String = %q", got)
	}
	if got := New[int]().String(); got != "{}" {
		t.Errorf("String = %q", got)
	}
}

func TestCountsCopy(t *testing.T) {
	m := From(1, 1, 2)
	c := m.Counts()
	c[1] = 99
	if m.Count(1) != 2 {
		t.Error("Counts must return a copy")
	}
}

// randomMultiset draws a multiset over a small universe so collisions are
// frequent, which is the interesting regime for multiset laws.
func randomMultiset(r *rand.Rand) *Multiset[int] {
	m := New[int]()
	n := r.Intn(12)
	for i := 0; i < n; i++ {
		m.Add(r.Intn(5))
	}
	return m
}

func TestQuickLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}

	t.Run("len equals sum of counts", func(t *testing.T) {
		f := func(seed int64) bool {
			m := randomMultiset(rand.New(rand.NewSource(seed)))
			total := 0
			for _, e := range m.Support() {
				total += m.Count(e)
			}
			return total == m.Len() && len(m.Elems()) == m.Len()
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("subset antisymmetry gives equality", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := randomMultiset(r), randomMultiset(r)
			if a.SubsetOf(b) && b.SubsetOf(a) {
				return a.Equal(b)
			}
			return true
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("union is upper bound", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := randomMultiset(r), randomMultiset(r)
			u := a.Union(b)
			return a.SubsetOf(u) && b.SubsetOf(u) && u.Equal(b.Union(a))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("sum length additive", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := randomMultiset(r), randomMultiset(r)
			return a.Sum(b).Len() == a.Len()+b.Len()
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("key is canonical", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := randomMultiset(r), randomMultiset(r)
			return (a.Key() == b.Key()) == a.Equal(b)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("intersects iff intersect nonempty", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := randomMultiset(r), randomMultiset(r)
			common := false
			for _, e := range a.Support() {
				common = common || b.Contains(e)
			}
			return a.Intersects(b) == common
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestReset(t *testing.T) {
	m := From("a", "b", "b")
	m.Reset()
	if !m.Empty() || m.Distinct() != 0 || m.Contains("b") {
		t.Fatalf("after Reset: %v (len %d, distinct %d)", m, m.Len(), m.Distinct())
	}
	m.Add("c")
	if !m.Equal(From("c")) {
		t.Errorf("reused after Reset: %v, want {c}", m)
	}
}
