package ohp

import (
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// Polling is the (POLLING, r, id) message.
type Polling struct {
	Round int
	ID    ident.ID
}

// MsgTag implements sim.Tagger.
func (Polling) MsgTag() string { return "POLLING" }

// Reply is the (P_REPLY, r, r', dest, sender) message: it answers all
// POLLING rounds r..r' of identifier Dest; Sender is the responder's
// identifier.
type Reply struct {
	From, To int // covered round interval [From, To]
	Dest     ident.ID
	Sender   ident.ID
}

// MsgTag implements sim.Tagger.
func (Reply) MsgTag() string { return "P_REPLY" }

// Detector is the per-process Figure 6 instance. It implements
// sim.Process, sim.Recoverer, fd.DiamondHPbar and fd.HOmega, and it is a
// sim.Signaller: h_trusted and the leader extracted from it change only
// when OnTimer closes a round, and OnTimer calls Environment.Changed when
// it replaces h_trusted — so probes read it once per change, not after
// every POLLING and P_REPLY delivery. (Setting hasOut needs no signal of
// its own: the leader exists only once h_trusted is non-empty, and it
// starts empty, so the first leader comes with a replacement.)
type Detector struct {
	env     sim.Environment
	id      ident.ID // env.ID(), read once in Init
	round   int
	timeout sim.Time
	trusted *multiset.Multiset[ident.ID]
	hasOut  bool
	// gather is where OnTimer collects the next h_trusted. It becomes
	// trusted only when it differs from it (and a fresh one is made for
	// the next round), so an unchanged round allocates no multiset.
	gather *multiset.Multiset[ident.ID]

	// epoch is carried as the round timer's tag. An outage can strand a
	// pre-crash timer that fires only after recovery; bumping the epoch on
	// recovery makes such stale timers recognizable, so the restarted
	// polling loop is the only live timer chain (never two in parallel).
	epoch int
	// resync, set on recovery, allows one round fast-forward: a homonym
	// that kept polling during our outage has moved the responders'
	// per-identifier reply cursor past our round, and rounds below it can
	// never gather a full reply set again.
	resync bool

	// leaderFor/leader memoize the HΩ extraction for the current trusted
	// value (see Leader).
	leaderFor *multiset.Multiset[ident.ID]
	leader    fd.LeaderInfo

	// latestR holds, per identifier that polled, the last round answered;
	// an identifier not in it has had no round answered (reads 0).
	latestR map[ident.ID]int

	// pending holds received replies addressed to id(p) whose interval can
	// still cover the current or a future round.
	pending []Reply

	// adapt enables the timeout-adaptation rule of Lines 33–34. It is on
	// in New; NewFixedTimeout disables it for the ablation experiment that
	// shows why the rule is necessary (a fixed timeout below 2δ+γ keeps
	// closing rounds before replies arrive, so h_trusted flaps forever).
	adapt bool
}

var (
	_ sim.Process     = (*Detector)(nil)
	_ sim.Recoverer   = (*Detector)(nil)
	_ fd.DiamondHPbar = (*Detector)(nil)
	_ fd.HOmega       = (*Detector)(nil)
	_ sim.Signaller   = (*Detector)(nil)
)

// New creates a detector.
func New() *Detector {
	return &Detector{
		round:   1,
		timeout: 1,
		adapt:   true,
		trusted: multiset.New[ident.ID](),
		latestR: make(map[ident.ID]int),
	}
}

// NewFixedTimeout creates the ABLATED detector whose timeout never adapts
// (Lines 33–34 removed). It is NOT a class-◇HP̄ implementation in HPS —
// the ablation experiment (E16) demonstrates exactly that — but converges
// when the fixed timeout happens to exceed the (unknown!) 2δ+γ bound,
// illustrating why adaptivity, not magic constants, is the right design.
func NewFixedTimeout(timeout sim.Time) *Detector {
	d := New()
	d.adapt = false
	if timeout >= 1 {
		d.timeout = timeout
	}
	return d
}

// Init implements sim.Process: start round 1.
func (d *Detector) Init(env sim.Environment) {
	d.env, d.id = env, env.ID()
	env.Broadcast(Polling{Round: d.round, ID: d.id})
	env.SetTimer(d.timeout, d.epoch)
}

// OnRecover implements sim.Recoverer: restart the polling loop after an
// outage. The round counter keeps advancing (peers answer each identifier
// round at most once, so reusing a pre-crash round number would lose
// replies), and the timer epoch is bumped so a timer stranded across the
// outage cannot double the polling rate.
func (d *Detector) OnRecover() {
	d.epoch++
	d.round++
	d.resync = true
	d.pending = d.pending[:0]
	d.env.Broadcast(Polling{Round: d.round, ID: d.id})
	d.env.SetTimer(d.timeout, d.epoch)
}

// OnTimer implements sim.Process: close the current round (gather
// h_trusted), then open the next one. When the gathered multiset equals
// the previous output the old value is kept, so h_trusted is
// pointer-stable across unchanged rounds and probes can compare samples
// with a pointer check.
func (d *Detector) OnTimer(tag int) {
	if tag != d.epoch {
		return // stale pre-outage timer
	}
	if d.gather == nil {
		d.gather = multiset.New[ident.ID]()
	}
	tmp := d.gather
	tmp.Reset()
	for i := range d.pending {
		if rep := &d.pending[i]; rep.From <= d.round && d.round <= rep.To {
			tmp.Add(rep.Sender)
		}
	}
	if !tmp.Equal(d.trusted) {
		d.trusted, d.gather = tmp, nil
		d.env.Changed()
	}
	d.hasOut = true
	d.round++

	// Prune replies that can no longer cover any round >= d.round. The
	// replies before the first pruned one stay where they are; only those
	// after it move.
	kept := 0
	for kept < len(d.pending) && d.pending[kept].To >= d.round {
		kept++
	}
	for i := kept + 1; i < len(d.pending); i++ {
		if d.pending[i].To >= d.round {
			d.pending[kept] = d.pending[i]
			kept++
		}
	}
	d.pending = d.pending[:kept]

	d.env.Broadcast(Polling{Round: d.round, ID: d.id})
	d.env.SetTimer(d.timeout, d.epoch)
}

// SignalsChanges implements sim.Signaller: OnTimer signals every change.
func (d *Detector) SignalsChanges() bool { return true }

// OnMessage implements sim.Process (Task T2 and timeout adaptation).
func (d *Detector) OnMessage(payload any) {
	switch m := payload.(type) {
	case Polling:
		d.onPolling(m)
	case Reply:
		d.onReply(m)
	}
}

func (d *Detector) onPolling(m Polling) {
	if last := d.latestR[m.ID]; last < m.Round {
		d.env.Broadcast(Reply{
			From:   last + 1,
			To:     m.Round,
			Dest:   m.ID,
			Sender: d.id,
		})
		d.latestR[m.ID] = m.Round
	}
}

func (d *Detector) onReply(m Reply) {
	if m.Dest != d.id {
		return
	}
	if m.From < d.round && d.adapt {
		// Outdated reply: the round it answers already closed, so the
		// timeout was too short (Lines 33–34).
		d.timeout++
	}
	if m.To >= d.round {
		if d.resync && m.From > d.round {
			// Post-outage catch-up: a faster homonym polled past us while
			// we were down, so the responders answer our identifier only
			// from round m.From on — rounds below it can never gather a
			// full reply set. Jump once to the covered interval.
			d.round = m.From
			d.resync = false
		}
		d.pending = append(d.pending, m)
	}
}

// Trusted implements fd.DiamondHPbar: the current h_trustedₚ multiset,
// shared and not copied. OnTimer replaces it wholesale (never mutates it
// in place) when the output changes, so callers may keep it as a
// snapshot; they must not mutate it.
func (d *Detector) Trusted() *multiset.Multiset[ident.ID] {
	return d.trusted
}

// Leader implements fd.HOmega via Corollary 2: the smallest identifier of
// h_trustedₚ with its multiplicity. ok is false until the first round
// closed or while h_trustedₚ is empty. The election is memoized per
// h_trusted value, which OnTimer keeps pointer-stable across unchanged
// rounds.
func (d *Detector) Leader() (fd.LeaderInfo, bool) {
	if !d.hasOut {
		return fd.LeaderInfo{}, false
	}
	if d.leaderFor != d.trusted {
		id, ok := d.trusted.Min()
		if !ok {
			return fd.LeaderInfo{}, false
		}
		d.leaderFor = d.trusted
		d.leader = fd.LeaderInfo{ID: id, Multiplicity: d.trusted.Count(id)}
	}
	return d.leader, true
}

// Timeout returns the adapted timeout (experiments observability).
func (d *Detector) Timeout() sim.Time { return d.timeout }
