package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// allocPing is a non-empty payload, so the engine has to carry a boxed
// value rather than a zero-size one through its fan-out record.
type allocPing struct {
	Round int
}

func (allocPing) MsgTag() string { return "ALLOC_PING" }

// pinger broadcasts the same payload every period, boxed once in Init.
type pinger struct {
	env   Environment
	ping  any
	heard int
}

func (p *pinger) Init(env Environment) {
	p.env = env
	p.ping = allocPing{Round: 7}
	env.SetTimer(5, 0)
}

func (p *pinger) OnMessage(any) { p.heard++ }

func (p *pinger) OnTimer(int) {
	p.env.Broadcast(p.ping)
	p.env.SetTimer(5, 0)
}

// TestUntracedDeliverZeroAlloc pins the engine's zero-allocation contract:
// at steady state, the untraced deliver path (broadcast fan-out, queue
// churn, payload table, delivery dispatch) performs zero heap allocations
// per run segment. Warm-up grows the queue and payload table to their
// steady-state capacities first.
func TestUntracedDeliverZeroAlloc(t *testing.T) {
	const n = 8
	eng := New(Config{IDs: ident.Unique(n), Net: Async{MaxDelay: 4}, Seed: 42})
	for i := 0; i < n; i++ {
		eng.AddProcess(&pinger{})
	}
	horizon := Time(1000)
	eng.Run(horizon) // warm-up: reach steady-state capacities

	before := eng.Processed()
	avg := testing.AllocsPerRun(20, func() {
		horizon += 200
		eng.Run(horizon)
	})
	if eng.Processed() == before {
		t.Fatal("measurement processed no events")
	}
	if avg != 0 {
		t.Fatalf("untraced deliver path allocates %.1f allocs/run, want 0", avg)
	}
}

// sliceMsg is deliberately non-comparable: an engine that used a payload
// as a map key would panic on it.
type sliceMsg struct {
	Vals []int
}

type sliceSender struct {
	env  Environment
	got  int
	send bool
}

func (s *sliceSender) Init(env Environment) {
	s.env = env
	if s.send {
		env.Broadcast(sliceMsg{Vals: []int{1, 2}})
	}
}

func (s *sliceSender) OnMessage(payload any) {
	if m, ok := payload.(sliceMsg); ok && len(m.Vals) == 2 {
		s.got++
	}
}

func (s *sliceSender) OnTimer(int) {}

// TestNodeNonComparablePayload pins that modules broadcasting
// non-comparable payloads through a Node neither panic nor lose the
// message: nothing between Broadcast and delivery may compare or hash a
// payload.
func TestNodeNonComparablePayload(t *testing.T) {
	const n = 3
	eng := New(Config{IDs: ident.Unique(n), Net: Timely{Delta: 1}, Seed: 7})
	senders := make([]*sliceSender, n)
	for i := 0; i < n; i++ {
		senders[i] = &sliceSender{send: i == 0}
		node := NewNode().Add("m", senders[i])
		eng.AddProcess(node)
	}
	eng.Run(50)
	for i, s := range senders {
		if s.got != 1 {
			t.Fatalf("process %d received %d slice messages, want 1", i, s.got)
		}
	}
}

// TestStatsOnlyMatchesRetainedStats pins that the retention-aware lazy
// formatting did not change what is counted: the same seeded scenario run
// with a stats-only recorder and with a retaining recorder yields equal
// statistics, and the retained trace renders byte-identically to a
// spilled one.
func TestStatsOnlyMatchesRetainedStats(t *testing.T) {
	run := func(rec *trace.Recorder) {
		eng := New(Config{IDs: ident.Unique(5), Net: Async{MaxDelay: 3}, Seed: 11, Recorder: rec})
		for i := 0; i < 5; i++ {
			eng.AddProcess(&pinger{})
		}
		eng.CrashAt(2, 40)
		eng.RecoverAt(2, 60)
		eng.Run(200)
	}

	statsOnly := &trace.Recorder{}
	run(statsOnly)

	retained := trace.NewRecorder()
	retained.BufSize = 32 // force many wraparounds
	run(retained)

	var spillBuf bytes.Buffer
	spilled := trace.NewSpillRecorder(trace.NewWriterSink(&spillBuf), 32)
	run(spilled)
	if err := spilled.Flush(); err != nil {
		t.Fatal(err)
	}

	so, re, sp := statsOnly.Stats(), retained.Stats(), spilled.Stats()
	if fmt.Sprintf("%+v", so) != fmt.Sprintf("%+v", re) || fmt.Sprintf("%+v", re) != fmt.Sprintf("%+v", sp) {
		t.Fatalf("stats diverge across recorder modes:\nstats-only: %+v\n  retained: %+v\n   spilled: %+v", so, re, sp)
	}

	var rendered bytes.Buffer
	if err := trace.WriteText(&rendered, retained.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rendered.Bytes(), spillBuf.Bytes()) {
		t.Fatal("spilled trace differs from rendered retained trace")
	}

	// The binary sink must agree end to end: the same run spilled through
	// BinarySink, decoded, and rendered is byte-identical to the text
	// spill — engine-driven coverage of the encode/decode/WriteText chain.
	var binBuf bytes.Buffer
	binary := trace.NewSpillRecorder(trace.NewBinarySink(&binBuf), 32)
	run(binary)
	if err := binary.Flush(); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadBinary(&binBuf)
	if err != nil {
		t.Fatal(err)
	}
	var fromBin bytes.Buffer
	if err := trace.WriteText(&fromBin, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromBin.Bytes(), spillBuf.Bytes()) {
		t.Fatal("decoded binary trace differs from text spill of the same run")
	}
}
