package fd

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ident"
	"repro/internal/multiset"
)

// LeaderInfo is the output pair of class HΩ: an identifier ℓ of some
// correct process together with the number of correct processes that carry
// ℓ. Every correct process carrying ℓ is a leader; HΩ elects a *set* of
// homonymous leaders rather than a single process.
type LeaderInfo struct {
	ID           ident.ID
	Multiplicity int
}

// String renders the pair as (ℓ, c).
func (l LeaderInfo) String() string { return fmt.Sprintf("(%s, %d)", l.ID, l.Multiplicity) }

// HOmega is the query interface of class HΩ. ok is false while the
// detector has produced no output yet; outputs before stabilization are
// arbitrary, as the class permits.
type HOmega interface {
	Leader() (info LeaderInfo, ok bool)
}

// Label names a quorum in classes HΣ, AΣ.
type Label string

// QuorumPair is one element (x, m) of an HΣ h_quora variable: the multiset
// m of identifiers is a quorum template for the label x.
type QuorumPair struct {
	Label Label
	M     *multiset.Multiset[ident.ID]
}

// HSigma is the query interface of class HΣ: the h_quora set of
// (label, multiset) pairs and the h_labels set this process participates
// in. Returned slices, and the multisets in them, are immutable: an
// implementation replaces its output when it changes (a fresh slice, or an
// append past the length it returned before), never writes to one it
// returned, and callers never write to them either. So a query with no
// event since the last one returns the identical slice, and consumers may
// keep a returned slice as a snapshot and take an unchanged slice identity
// for an unchanged output.
type HSigma interface {
	Quora() []QuorumPair
	Labels() []Label
}

// DiamondHPbar is the query interface of class ◇HP̄: the multiset of
// identifiers the process currently trusts, eventually forever equal to
// I(Correct).
type DiamondHPbar interface {
	Trusted() *multiset.Multiset[ident.ID]
}

// Sigma is the quorum class Σ generalized, as the paper does, so that the
// trusted value is a multiset of identifiers. Liveness: eventually forever
// trusted ⊆ I(Correct); safety: any two outputs, at any processes and
// times, intersect.
type Sigma interface {
	TrustedQuorum() *multiset.Multiset[ident.ID]
}

// AOmega is the anonymous leader class AΩ: eventually, permanently, the
// Boolean of exactly one correct process is true and the Booleans of all
// other correct processes are false.
type AOmega interface {
	IsLeader() bool
}

// AP is the anonymous "alive count" class: an upper bound on the number of
// alive processes that eventually equals |Correct| forever.
type AP interface {
	AliveCount() int
}

// APair is one element (x, y) of an AΣ a_sigma variable: label x names a
// quorum of y processes that know x.
type APair struct {
	Label Label
	Y     int
}

// ASigma is the anonymous quorum class AΣ.
type ASigma interface {
	ASigma() []APair
}

// AliveList is the class 𝔈 of Definition 1 (unique-identifier systems): a
// sequence of identifiers such that eventually the correct processes'
// identifiers permanently occupy the prefix (rank ≤ |Correct|).
type AliveList interface {
	Alive() []ident.ID
}

// Rank returns the 1-based position of id in the alive list, or 0 if
// absent (the paper's rank is +∞ for absent identifiers; 0 encodes that
// sentinel and callers must treat 0 as "worst").
func Rank(id ident.ID, alive []ident.ID) int {
	for i, x := range alive {
		if x == id {
			return i + 1
		}
	}
	return 0
}

// MaxRank returns the worst rank among ids in the alive list, treating
// absence as +∞ (it returns len(alive)+1+missing so that any present set
// beats any set with absentees deterministically).
func MaxRank(ids []ident.ID, alive []ident.ID) int {
	worst := 0
	missing := 0
	for _, id := range ids {
		r := Rank(id, alive)
		if r == 0 {
			missing++
			continue
		}
		if r > worst {
			worst = r
		}
	}
	if missing > 0 {
		return len(alive) + 1 + missing
	}
	return worst
}

// SortLabels returns a sorted copy, the canonical form used to compare
// h_labels snapshots (Fig. 9's "current_labels ≠ D2.h_labels" guard).
func SortLabels(ls []Label) []Label {
	out := make([]Label, len(ls))
	copy(out, ls)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LabelsEqual compares two label sets disregarding order.
func LabelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	// Fast path: detectors almost always report labels in a stable order,
	// so an elementwise scan usually decides without the sorted copies.
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		return true
	}
	as, bs := SortLabels(a), SortLabels(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// QuoraEqual compares two h_quora snapshots pairwise, in order: detectors
// report their pairs in a stable order, so a reordering is a change.
func QuoraEqual(a, b []QuorumPair) bool {
	return slices.EqualFunc(a, b, func(x, y QuorumPair) bool {
		return x.Label == y.Label && x.M.Equal(y.M)
	})
}

// MultisetEqual is multiset equality that also accepts nil (a detector
// with no output yet): nil equals only nil.
func MultisetEqual(a, b *multiset.Multiset[ident.ID]) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Equal(b)
}
