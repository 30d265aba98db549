package experiments

import (
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/sim"
)

// TestListReaderReusesBuffers holds E3's probe reads to their two
// promises. No read writes into the list the probe holds: after every
// read the probe's last value is the list just read, and its last-change
// time moved exactly when the list changed (a read into the held buffer
// would make a changed list compare equal to itself and go unrecorded).
// And once the buffers have grown, a read allocates nothing, changed or
// not.
func TestListReaderReusesBuffers(t *testing.T) {
	sp := fd.NewStaticStreamProbe(1, slices.Equal[[]ident.ID])
	r := newListReader(1)
	r.probe = sp
	lists := [][]ident.ID{{"a", "b", "c"}, {"a", "b", "c"}, {"b", "a", "c"}, {"b", "a", "c"}, {"c", "b", "a"}, {"c"}, {"c"}, {"a", "b", "c"}}
	var now, changed sim.Time
	var prev []ident.ID
	feed := func(list []ident.ID) {
		now++
		sp.Feed(now, 0, r.read(0, func(dst []ident.ID) []ident.ID { return append(dst, list...) }))
		if !slices.Equal(prev, list) {
			changed = now
		}
		prev = list
		if last, _ := sp.Last(0); !slices.Equal(last, list) || sp.LastChange(0) != changed {
			t.Fatalf("t=%d: probe holds %v changed at %d, want %v changed at %d", now, last, sp.LastChange(0), list, changed)
		}
	}
	for _, list := range lists {
		feed(list)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, list := range lists {
			feed(list)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per pass of %d reads, want none", allocs, len(lists))
	}
}
