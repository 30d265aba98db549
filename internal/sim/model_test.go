package sim

import (
	"testing"
	"testing/quick"
)

func TestAsyncDelayBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := testFate(seed)
		m := Async{MinDelay: 2, MaxDelay: 9}
		for i := 0; i < 50; i++ {
			d, ok := m.Delay(Time(r.Int63n(1000)), r)
			if !ok || d < 2 || d > 9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAsyncDefaultsSane(t *testing.T) {
	r := testFate(1)
	m := Async{} // zero value must behave
	for i := 0; i < 100; i++ {
		d, ok := m.Delay(0, r)
		if !ok || d < 1 {
			t.Fatalf("Async zero-value delay = %d, %v", d, ok)
		}
	}
	if (Async{}).String() == "" {
		t.Error("empty String()")
	}
}

func TestPartialSyncLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := testFate(seed)
		m := PartialSync{GST: 100, Delta: 4, PreLoss: 0.5, PreMax: 30}
		for i := 0; i < 200; i++ {
			sendAt := Time(r.Int63n(200))
			d, ok := m.Delay(sendAt, r)
			if sendAt >= 100 {
				// Post-GST: never lost, within δ.
				if !ok || d < 1 || d > 4 {
					return false
				}
			} else if ok && (d < 1 || d > 31) {
				// Pre-GST: if delivered, delay ≤ PreMax+1 (finite).
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPartialSyncLosslessIsReliable(t *testing.T) {
	r := testFate(2)
	m := PartialSync{GST: 100, Delta: 3} // PreLoss 0 → reliable
	for i := 0; i < 500; i++ {
		if _, ok := m.Delay(Time(i%200), r); !ok {
			t.Fatal("PreLoss=0 must never lose a message")
		}
	}
}

func TestTimelyExact(t *testing.T) {
	r := testFate(3)
	m := Timely{Delta: 7}
	for i := 0; i < 50; i++ {
		d, ok := m.Delay(Time(i), r)
		if !ok || d != 7 {
			t.Fatalf("Timely delay = %d, want 7", d)
		}
	}
	if d, ok := (Timely{}).Delay(0, r); !ok || d != 1 {
		t.Errorf("Timely zero-value delay = %d, want 1", d)
	}
}

func TestModelStrings(t *testing.T) {
	for _, m := range []Model{Async{MaxDelay: 5}, PartialSync{GST: 10, Delta: 2}, Timely{Delta: 3}} {
		if m.String() == "" {
			t.Errorf("%T has empty String()", m)
		}
	}
}
