// Package sim is an unstablesort fixture: deterministic by path.
package sim

import (
	"cmp"
	"slices"
	"sort"
)

type row struct {
	key  int
	name string
}

// singleKey orders by one potentially-tying projection: flagged.
func singleKey(rows []row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key }) // want `sort.Slice is unstable.*use sort.SliceStable`
}

// stableSingleKey uses the stable variant: ties keep input order.
func stableSingleKey(rows []row) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
}

// wholeElement compares the elements themselves, but through sort.Slice:
// flagged, with slices.Sort named as the replacement.
func wholeElement(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) // want `sort.Slice is unstable.*or slices.Sort when the elements themselves are the key`
}

// wholeValue sorts by the elements themselves: ties are identical
// values, so the order among them is unobservable.
func wholeValue(xs []int) {
	slices.Sort(xs)
}

// tieBreaker compares two keys; whether the chain is total is not
// something the call site proves: flagged.
func tieBreaker(rows []row) {
	sort.Slice(rows, func(i, j int) bool { // want `sort.Slice is unstable`
		if rows[i].key != rows[j].key {
			return rows[i].key < rows[j].key
		}
		return rows[i].name < rows[j].name
	})
}

// opaque passes a named comparison: flagged.
func opaque(rows []row, less func(i, j int) bool) {
	sort.Slice(rows, less) // want `sort.Slice is unstable`
}

// sortSort orders through an opaque Less: flagged.
func sortSort(data sort.Interface) {
	sort.Sort(data) // want `sort.Sort is unstable.*use sort.Stable`
}

// funcSingleKey is the slices.SortFunc shape of singleKey: flagged.
func funcSingleKey(rows []row) {
	slices.SortFunc(rows, func(a, b row) int { return cmp.Compare(a.key, b.key) }) // want `slices.SortFunc is unstable.*use slices.SortStableFunc`
}

// funcWhole compares whole elements through cmp.Compare: flagged.
func funcWhole(xs []int) {
	slices.SortFunc(xs, func(a, b int) int { return cmp.Compare(a, b) }) // want `slices.SortFunc is unstable`
}

// funcChain is a two-key cmp chain: flagged.
func funcChain(rows []row) {
	slices.SortFunc(rows, func(a, b row) int { // want `slices.SortFunc is unstable`
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
}

// vetted documents a deliberately partial order: suppressed, no diagnostic.
func vetted(rows []row) {
	//detlint:ignore unstablesort fixture: rows are deduplicated by key upstream, ties impossible
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
}
