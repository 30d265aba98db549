package hostspeed

import "testing"

func TestRunDoesTheSameWorkEveryTime(t *testing.T) {
	k := New()
	if d := k.Run(); d <= 0 {
		t.Fatalf("Run took %v", d)
	}
	// The event loop ends where it started: same heap capacity, and a
	// second pass over the untouched varint stream adds the same sum.
	before := k.sink
	k.decode()
	first := k.sink - before
	before = k.sink
	k.decode()
	if second := k.sink - before; second != first || first == 0 {
		t.Errorf("decode summed %d, then %d", first, second)
	}
	if cap(k.heap) != 4096 {
		t.Errorf("event heap grew to %d entries: the loop is meant to hold about 2000", cap(k.heap))
	}
}
