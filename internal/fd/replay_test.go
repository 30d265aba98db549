package fd

import (
	"strings"
	"testing"

	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestViewRenderParse pins the codecs as exact inverses on representative
// detector outputs, including empty values.
func TestViewRenderParse(t *testing.T) {
	views := []*multiset.Multiset[ident.ID]{
		multiset.New[ident.ID](),
		multiset.From[ident.ID]("g001"),
		multiset.From[ident.ID]("g001", "g001", "g002", "p017"),
	}
	for _, v := range views {
		got, err := ParseView(RenderView(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("view %v round-tripped to %v", v, got)
		}
	}

	leaders := []LeaderInfo{{}, {ID: "g001", Multiplicity: 3}}
	for _, l := range leaders {
		got, err := ParseLeader(RenderLeader(l))
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if got != l {
			t.Errorf("leader %v round-tripped to %v", l, got)
		}
	}

	for _, bad := range []string{"g001", "g001*", "g001*0", "g001*x", "|"} {
		if _, err := ParseView(bad); err == nil {
			t.Errorf("ParseView(%q) succeeded", bad)
		}
	}
	if _, err := ParseLeader("g001"); err == nil {
		t.Error("ParseLeader without multiplicity succeeded")
	}
}

// TestRecordReplayChanges pins the replay equivalence this layer exists
// for: feed a live StreamProbe a change stream, record it through
// RecordChanges, replay the trace — and the reconstructed probe must agree
// with the live one on every final view and last-change time.
func TestRecordReplayChanges(t *testing.T) {
	const n = 4
	rec := trace.NewRecorder()
	live := NewStaticStreamProbe(n, (*multiset.Multiset[ident.ID]).Equal)
	RecordChanges(rec, live, TagTrusted, RenderView)
	liveLeader := NewStaticStreamProbe(n, func(a, b LeaderInfo) bool { return a == b })
	RecordChanges(rec, liveLeader, TagLeader, RenderLeader)

	// A churn-shaped sample stream: views shrink on crashes, re-grow on
	// recoveries, with repeated (deduplicated) samples along the way.
	all := multiset.From[ident.ID]("g001", "g001", "g002")
	down := multiset.From[ident.ID]("g001", "g002")
	for p := 0; p < n; p++ {
		live.Feed(1, sim.PID(p), all)
		liveLeader.Feed(1, sim.PID(p), LeaderInfo{ID: "g001", Multiplicity: 2})
	}
	live.Feed(5, 0, all) // unchanged: must not reach the trace
	for p := 0; p < 3; p++ {
		live.Feed(7, sim.PID(p), down)
	}
	for p := 0; p < n; p++ {
		live.Feed(19, sim.PID(p), all)
		liveLeader.Feed(23, sim.PID(p), LeaderInfo{ID: "g001", Multiplicity: 2}) // unchanged
	}

	trusted := NewTrustedReplayer(n)
	leader := NewLeaderReplayer(n)
	for _, e := range rec.Events() {
		trusted.Observe(e)
		leader.Observe(e)
	}
	if err := trusted.Err(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Err(); err != nil {
		t.Fatal(err)
	}

	for p := sim.PID(0); p < n; p++ {
		lv, lok := live.Last(p)
		rv, rok := trusted.Probe().Last(p)
		if lok != rok || (lok && !lv.Equal(rv)) {
			t.Errorf("process %d: live view %v/%v, replay %v/%v", p, lv, lok, rv, rok)
		}
		if lt, rt := live.LastChange(p), trusted.Probe().LastChange(p); lt != rt {
			t.Errorf("process %d: live last change %d, replay %d", p, lt, rt)
		}
		ll, lok := liveLeader.Last(p)
		rl, rok := leader.Probe().Last(p)
		if lok != rok || ll != rl {
			t.Errorf("process %d: live leader %v/%v, replay %v/%v", p, ll, lok, rl, rok)
		}
		if lt, rt := liveLeader.LastChange(p), leader.Probe().LastChange(p); lt != rt {
			t.Errorf("process %d: live leader change %d, replay %d", p, lt, rt)
		}
	}
}

// TestChangeReplayerErrors pins the malformed-trace paths: out-of-range
// pids and unparseable details surface, foreign tags are ignored.
func TestChangeReplayerErrors(t *testing.T) {
	r := NewTrustedReplayer(2)
	r.Observe(trace.Event{Time: 1, Kind: trace.KindFDChange, PID: 5, MsgTag: TagTrusted, Detail: "g001*1"})
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("got %v, want out-of-range error", err)
	}

	r = NewTrustedReplayer(2)
	r.Observe(trace.Event{Time: 1, Kind: trace.KindFDChange, PID: 0, MsgTag: TagTrusted, Detail: "garbage"})
	if err := r.Err(); err == nil {
		t.Fatal("unparseable view accepted")
	}

	r = NewTrustedReplayer(2)
	r.Observe(trace.Event{Time: 1, Kind: trace.KindFDChange, PID: 0, MsgTag: TagLeader, Detail: "g001*1"})
	r.Observe(trace.Event{Time: 1, Kind: trace.KindDeliver, PID: 0, MsgTag: "BEAT"})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Probe().Last(0); ok {
		t.Error("foreign-tag event reached the probe")
	}
}
