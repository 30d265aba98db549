package alive

import (
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/sim"
)

// DefaultPollInterval is the re-broadcast period of the ALIVE task.
const DefaultPollInterval sim.Time = 5

// Msg is the ALIVE(id) message of Figure 3.
type Msg struct {
	ID ident.ID
}

// MsgTag implements sim.Tagger.
func (Msg) MsgTag() string { return "ALIVE" }

// Detector is the per-process Figure 3 instance. It implements
// sim.Process and fd.AliveList.
type Detector struct {
	env sim.Environment
	// msg is ALIVE(id), boxed once in Init: the value never changes, so
	// every period broadcasts the same box.
	msg   any
	alive []ident.ID // index 0 is the first (freshest) position
}

var (
	_ sim.Process  = (*Detector)(nil)
	_ fd.AliveList = (*Detector)(nil)
)

// New creates a detector broadcasting every DefaultPollInterval units.
func New() *Detector { return &Detector{} }

// Init implements sim.Process: it starts Task T1 (periodic ALIVE).
func (d *Detector) Init(env sim.Environment) {
	d.env = env
	d.msg = Msg{ID: env.ID()}
	env.Broadcast(d.msg)
	env.SetTimer(DefaultPollInterval, 0)
}

// OnTimer implements sim.Process (Task T1's "repeat forever").
func (d *Detector) OnTimer(tag int) {
	d.env.Broadcast(d.msg)
	d.env.SetTimer(DefaultPollInterval, tag)
}

// OnMessage implements sim.Process (Task T2): move the received identifier
// to the first position of alive, inserting it if new.
func (d *Detector) OnMessage(payload any) {
	m, ok := payload.(Msg)
	if !ok {
		return
	}
	for i, id := range d.alive {
		if id == m.ID {
			copy(d.alive[1:i+1], d.alive[:i])
			d.alive[0] = m.ID
			return
		}
	}
	d.alive = append([]ident.ID{m.ID}, d.alive...)
}

// Alive implements fd.AliveList: a copy of the current list, first
// position first.
func (d *Detector) Alive() []ident.ID {
	out := make([]ident.ID, len(d.alive))
	copy(out, d.alive)
	return out
}
