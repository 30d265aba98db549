package spans

import (
	"testing"
	"time"
)

func span(name string, start, end int64, parent int) Span {
	return Span{Name: name, StartNS: start, EndNS: end, Parent: parent}
}

func TestSelfTimes(t *testing.T) {
	all := []Span{
		span("root", 0, 100, -1),
		span("a", 10, 30, 0),       // 20 covered
		span("b", 20, 50, 0),       // overlaps a: union 10..50 = 40
		span("c", 90, 120, 0),      // clipped to the parent's end: 10
		span("a.child", 12, 18, 1), // grandchild counts against a only
		span("lonely", 200, 260, -1),
	}
	got := SelfTimes(all)
	want := []time.Duration{50, 14, 30, 30, 6, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", all[i].Name, got[i], want[i])
		}
	}
	if total := RootTotal(all); total != 160 {
		t.Errorf("RootTotal = %d, want 160", total)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	// Two workers' items fully cover the parent twice over.
	all := []Span{
		span("map", 0, 100, -1),
		span("item", 0, 100, 0),
		span("item", 0, 100, 0),
	}
	if got := SelfTimes(all)[0]; got != 0 {
		t.Errorf("self time = %d, want 0", got)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	root := r.Start("root", -1, "live20k")
	child := r.Start("child", root, "")
	r.End(child)
	acc := r.Add("accumulated", root, 5*time.Millisecond)
	r.End(root)
	all := r.Spans()
	if len(all) != 3 || all[child].Parent != root || all[acc].Parent != root {
		t.Fatalf("unexpected spans: %+v", all)
	}
	if all[acc].Duration() != 5*time.Millisecond || all[acc].Workload != "live20k" {
		t.Errorf("Add recorded %+v", all[acc])
	}
	if all[root].EndNS < all[child].EndNS || all[child].StartNS < all[root].StartNS {
		t.Errorf("child not nested in root: %+v", all)
	}
}
