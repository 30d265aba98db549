package trace

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRecorderStats(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Time: 1, Kind: KindBroadcast, PID: 0, MsgTag: "PH1"})
	r.Record(Event{Time: 1, Kind: KindBroadcast, PID: 1, MsgTag: "PH1"})
	r.Record(Event{Time: 2, Kind: KindBroadcast, PID: 0, MsgTag: "COORD"})
	r.Record(Event{Time: 2, Kind: KindDeliver, PID: 1, MsgTag: "PH1"})
	r.Record(Event{Time: 3, Kind: KindDrop, PID: 1})
	r.Record(Event{Time: 4, Kind: KindCrash, PID: 2})
	r.Record(Event{Time: 5, Kind: KindTimer, PID: 0})
	r.Record(Event{Time: 6, Kind: KindDecide, PID: 0})

	s := r.Stats()
	if s.Broadcasts != 3 || s.Delivered != 1 || s.Dropped != 1 || s.Crashes != 1 || s.Timers != 1 || s.Decisions != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.ByTag["PH1"] != 2 || s.ByTag["COORD"] != 1 {
		t.Errorf("ByTag = %v", s.ByTag)
	}
	if got := len(r.Events()); got != 8 {
		t.Errorf("events = %d, want 8", got)
	}
	if got := len(r.Filter(KindBroadcast)); got != 3 {
		t.Errorf("Filter(broadcast) = %d, want 3", got)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Kind: KindBroadcast, MsgTag: "X"})
	s := r.Stats()
	s.ByTag["X"] = 99
	if r.Stats().ByTag["X"] != 1 {
		t.Error("Stats must return a copied ByTag map")
	}
}

func TestKeepEventsOff(t *testing.T) {
	r := &Recorder{} // zero value: stats only
	r.Record(Event{Kind: KindBroadcast, MsgTag: "X"})
	if len(r.Events()) != 0 {
		t.Error("zero-value recorder should not retain events")
	}
	if r.Stats().Broadcasts != 1 {
		t.Error("stats must still accumulate")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindBroadcast}) // must not panic
	if r.Stats().Broadcasts != 0 {
		t.Error("nil recorder stats should be zero")
	}
	if r.Events() != nil {
		t.Error("nil recorder events should be nil")
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		//detlint:ignore unsortedgo concurrency smoke for the atomic stats counters; asserts totals only, nothing here reaches replayed trace bytes
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record(Event{Kind: KindBroadcast, MsgTag: "T"})
			}
		}()
	}
	wg.Wait()
	if got := r.Stats().Broadcasts; got != 800 {
		t.Errorf("Broadcasts = %d, want 800", got)
	}
}

func TestKindAndEventStrings(t *testing.T) {
	if KindBroadcast.String() != "broadcast" || KindFDChange.String() != "fd-change" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should embed its number")
	}
	e := Event{Time: 7, Kind: KindDeliver, PID: 2, MsgTag: "PH1"}
	if s := e.String(); !strings.Contains(s, "t=7") || !strings.Contains(s, "PH1") {
		t.Errorf("event string = %q", s)
	}
	e2 := Event{Time: 1, Kind: KindCrash, PID: 0}
	if s := e2.String(); !strings.Contains(s, "crash") {
		t.Errorf("event string = %q", s)
	}
}

// TestRecordBatchEqualsRecord pins RecordBatch to Record: a seeded batch
// holding every kind, several broadcast tags (the empty one included) and
// kinds outside the defined range yields the same Stats — ByTag included —
// and the same retained events whether it is recorded event by event or in
// batches of uneven size, on stats-only and retaining recorders alike.
func TestRecordBatchEqualsRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	kinds := []Kind{-3, 0, KindTimerDrop + 1, 1000}
	for k := KindBroadcast; k <= KindTimerDrop; k++ {
		kinds = append(kinds, k)
	}
	tags := []string{"", "PH1", "PH2", "COORD", "ALIVE"}
	events := make([]Event, 3000)
	for i := range events {
		events[i] = Event{Time: int64(i), Kind: kinds[rng.Intn(len(kinds))], PID: rng.Intn(7), MsgTag: tags[rng.Intn(len(tags))]}
	}
	for _, keep := range []bool{false, true} {
		one, batched := &Recorder{KeepEvents: keep, BufSize: 64}, &Recorder{KeepEvents: keep, BufSize: 64}
		for _, e := range events {
			one.Record(e)
		}
		for rest := events; len(rest) > 0; {
			n := min(1+rng.Intn(700), len(rest))
			batched.RecordBatch(rest[:n])
			rest = rest[n:]
		}
		batched.RecordBatch(nil)
		if got, want := batched.Stats(), one.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("KeepEvents=%v: RecordBatch stats %+v, Record stats %+v", keep, got, want)
		}
		if want := one.Stats(); want.Broadcasts == 0 || want.TimerDrops == 0 || len(want.ByTag) != len(tags) {
			t.Fatalf("seeded batch misses a kind or tag: %+v", want)
		}
		if got, want := batched.Events(), one.Events(); !slices.Equal(got, want) || (keep && len(got) != len(events)) {
			t.Errorf("KeepEvents=%v: RecordBatch retained %d events, Record %d", keep, len(got), len(want))
		}
	}
	var none *Recorder
	none.RecordBatch(events) // a nil recorder is safe to record into
}
