package fd_test

import (
	"testing"

	"repro/internal/fd"
	"repro/internal/fd/ohp"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkOHPProbe times a runOHP-shaped run: Figure 6 on twelve
// processes with four identifiers over hdsim's default partial-synchrony
// net, one crash, a stats-only recorder, and the two StreamProbes runOHP
// attaches (h_trusted and the HΩ leader), to ohp's default horizon. It
// reports ns per engine event; the probes' share of it is what the
// detector's change signals save.
func BenchmarkOHPProbe(b *testing.B) {
	ids := ident.Balanced(12, 4)
	events := 0
	for b.Loop() {
		eng := sim.New(sim.Config{IDs: ids, Net: sim.PartialSync{Delta: 3}, Seed: 1, Recorder: &trace.Recorder{}})
		dets := make([]*ohp.Detector, ids.N())
		for i := range dets {
			dets[i] = ohp.New()
			eng.AddProcess(dets[i])
		}
		eng.CrashAt(3, 200)
		fd.NewStreamProbe(eng, ids.N(), func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
			return dets[p].Trusted(), true
		}, fd.MultisetEqual)
		fd.NewStreamProbe(eng, ids.N(), func(p sim.PID) (fd.LeaderInfo, bool) {
			return dets[p].Leader()
		}, fd.LeaderEqual)
		eng.Run(5000)
		events += eng.Processed()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
