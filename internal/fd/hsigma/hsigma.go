package hsigma

import (
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// Msg is the IDENT(id) message of Figure 7.
type Msg struct {
	ID ident.ID
}

// MsgTag implements sim.Tagger.
func (Msg) MsgTag() string { return "IDENT" }

// Detector is the per-process Figure 7 instance for the synchronous
// engine. It implements sim.SyncProcess and fd.HSigma.
type Detector struct {
	quora  []fd.QuorumPair
	known  map[fd.Label]bool
	labels []fd.Label
}

var (
	_ sim.SyncProcess = (*Detector)(nil)
	_ fd.HSigma       = (*Detector)(nil)
)

// New creates a detector.
func New() *Detector {
	return &Detector{known: make(map[fd.Label]bool)}
}

// StepSend implements sim.SyncProcess: broadcast IDENT(id(p)).
func (d *Detector) StepSend(env *sim.SyncEnv) []any {
	return []any{Msg{ID: env.ID()}}
}

// StepRecv implements sim.SyncProcess: gather the step's identifiers and
// extend h_quora and h_labels.
func (d *Detector) StepRecv(_ *sim.SyncEnv, received []any) {
	mset := multiset.New[ident.ID]()
	for _, payload := range received {
		if m, ok := payload.(Msg); ok {
			mset.Add(m.ID)
		}
	}
	if mset.Empty() {
		return
	}
	label := fd.Label(mset.Key())
	if d.known[label] {
		return // set union: (mset, mset) already present
	}
	d.known[label] = true
	d.quora = append(d.quora, fd.QuorumPair{Label: label, M: mset})
	d.labels = append(d.labels, label)
}

// Quora implements fd.HSigma.
func (d *Detector) Quora() []fd.QuorumPair { return d.quora }

// Labels implements fd.HSigma.
func (d *Detector) Labels() []fd.Label { return d.labels }
