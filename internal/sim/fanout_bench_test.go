package sim

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// pollMsg and replyMsg are smallPoller's two messages.
type pollMsg struct{}
type replyMsg struct{}

func (pollMsg) MsgTag() string  { return "POLLING" }
func (replyMsg) MsgTag() string { return "P_REPLY" }

// smallPoller has Figure 6's traffic shape without its detector: every
// round it broadcasts a poll, and every poll it receives it answers with a
// broadcast reply — in a homonymous system a reply cannot be addressed, so
// a round is n polls and n² replies, n³ deliveries.
type smallPoller struct {
	env Environment
}

func (p *smallPoller) Init(env Environment) {
	p.env = env
	env.Broadcast(pollMsg{})
	env.SetTimer(8, 0)
}

func (p *smallPoller) OnTimer(tag int) {
	p.env.Broadcast(pollMsg{})
	p.env.SetTimer(8, tag)
}

func (p *smallPoller) OnMessage(m any) {
	if _, ok := m.(pollMsg); ok {
		p.env.Broadcast(replyMsg{})
	}
}

// BenchmarkSmallFanout times the engine on a Figure 6-shaped run at the
// size hunt campaigns use: six processes with three identifiers over
// PartialSync{Delta: 3}, a stats-only recorder, to ohp's default horizon
// 5000. Nearly every event is a copy delivered by a fan-out wave of a
// six-recipient broadcast, so the per-wave costs — the queue entry's heap
// pass, reading the broadcast's record — weigh as much as the copies. It
// reports ns per engine event.
func BenchmarkSmallFanout(b *testing.B) {
	ids := ident.Balanced(6, 3)
	events := 0
	for b.Loop() {
		eng := New(Config{IDs: ids, Net: PartialSync{Delta: 3}, Seed: 1, Recorder: &trace.Recorder{}})
		for range ids.N() {
			eng.AddProcess(&smallPoller{})
		}
		eng.Run(5000)
		events += eng.Processed()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
