package ap

import (
	"repro/internal/fd"
	"repro/internal/sim"
)

// Msg is the ALIVE heartbeat.
type Msg struct{}

// MsgTag implements sim.Tagger.
func (Msg) MsgTag() string { return "ALIVE" }

// Detector is the per-process synchronous AP instance: run it as
// sim.NewLockstep(d). It implements sim.StepProcess and fd.AP; it counts
// each step's inbox, so the order of the inbox does not matter.
type Detector struct {
	count int
	valid bool
}

var (
	_ sim.StepProcess = (*Detector)(nil)
	_ fd.AP           = (*Detector)(nil)
)

// New creates a detector.
//
//detlint:ignore unreached paper artifact: the synchronous AP detector of anonymous systems (reference [5]), held by its tests
func New() *Detector { return &Detector{} }

// StepSend implements sim.StepProcess.
func (d *Detector) StepSend(sim.Environment) any { return Msg{} }

// StepRecv implements sim.StepProcess: the step's message count is the
// current alive estimate.
func (d *Detector) StepRecv(received []any) {
	n := 0
	for _, payload := range received {
		if _, ok := payload.(Msg); ok {
			n++
		}
	}
	if n > 0 {
		d.count = n
		d.valid = true
	}
}

// AliveCount implements fd.AP.
func (d *Detector) AliveCount() int { return d.count }
