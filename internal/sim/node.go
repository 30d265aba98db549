package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/ident"
	"repro/internal/trace"
)

// A Node composes several modules (algorithm layers) on one simulated
// process: typically a failure-detector implementation underneath a
// consensus algorithm, exactly as the paper combines, e.g., the Fig. 6
// detector with the Fig. 8 consensus to solve consensus in HPS.
//
// Each module broadcasts and receives through its own namespaced channel
// (payloads are wrapped in envelopes), and modules on the same node may
// share memory directly — a failure detector is a local oracle to the
// layers above it. After an event is dispatched, the modules implementing
// Poller are polled in module order, so guard conditions that observe
// another module's output (e.g. "wait until D.h_leader ≠ id(p)") are
// re-evaluated whenever that output may have changed. The one Poller
// skipped is the module that handled the event (a message addressed to it,
// or its own timer) when no Poller comes before it: nothing has run since
// its handler returned, and by the Poller contract that handler already
// left the state its Poll would. Init, OnRecover, an unwrapped payload
// (every module handles it) and an envelope for a module this node does
// not run poll every Poller.
type Node struct {
	modules []namedModule
	byName  map[string]int
	env     Environment
}

type namedModule struct {
	name   string
	proc   Process
	poller Poller // proc as a Poller, nil if it is none
}

// Poller is implemented by modules whose guard conditions depend on state
// outside their own message stream (another module's output). A Node polls
// it after the events it processes (see Node for the one it skips).
//
// Contract: a Poller's handlers (Init, OnMessage, OnTimer, OnRecover) end
// in the state its Poll would leave, i.e. they evaluate its guards to a
// fixpoint before returning, and Poll at a fixpoint has no side effects.
type Poller interface {
	Poll()
}

// NewNode creates an empty node; attach layers with Add in bottom-up order,
// then register the node itself with Engine.AddProcess.
func NewNode() *Node {
	return &Node{byName: make(map[string]int)}
}

// Add attaches a module under a unique name and returns the node for
// chaining. It panics on duplicate names (an experiment-setup error).
func (n *Node) Add(name string, p Process) *Node {
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("sim: duplicate module name %q", name))
	}
	n.byName[name] = len(n.modules)
	poller, _ := p.(Poller)
	n.modules = append(n.modules, namedModule{name: name, proc: p, poller: poller})
	return n
}

// envelope carries a module's payload on the wire, namespaced by module
// name so that co-located stacks on different processes interoperate.
type envelope struct {
	Module  string
	Payload any
}

// MsgTag implements Tagger, preserving the inner payload's tag.
func (e envelope) MsgTag() string { return tagOf(e.Payload) }

// Init implements Process.
func (n *Node) Init(env Environment) {
	n.env = env
	for i, m := range n.modules {
		m.proc.Init(&moduleEnv{node: n, index: i})
	}
	n.pollAll()
}

// OnMessage implements Process: it unwraps the envelope and dispatches to
// the addressed module. Messages for modules this node does not run are
// ignored (heterogeneous deployments are legal).
func (n *Node) OnMessage(payload any) {
	env, ok := payload.(envelope)
	if !ok {
		// Unwrapped payloads go to every module; this keeps single-module
		// nodes interoperable with bare processes.
		for _, m := range n.modules {
			m.proc.OnMessage(payload)
		}
		n.pollAll()
		return
	}
	handled := -1
	if i, ok := n.byName[env.Module]; ok {
		n.modules[i].proc.OnMessage(env.Payload)
		handled = i
	}
	n.pollAfter(handled)
}

// OnRecover implements Recoverer: it forwards the recovery to every module
// that restarts after an outage, then re-polls guard conditions.
func (n *Node) OnRecover() {
	for _, m := range n.modules {
		if r, ok := m.proc.(Recoverer); ok {
			r.OnRecover()
		}
	}
	n.pollAll()
}

// OnTimer implements Process, demultiplexing the namespaced timer tag.
func (n *Node) OnTimer(tag int) {
	k := len(n.modules)
	idx, inner := tag%k, tag/k
	n.modules[idx].proc.OnTimer(inner)
	n.pollAfter(idx)
}

func (n *Node) pollAll() { n.pollAfter(-1) }

// pollAfter polls every Poller in module order after module handled (-1:
// none, or all) ran an event, except handled itself while no Poller has
// been polled before it: its handler ended at a fixpoint and nothing has
// run since.
func (n *Node) pollAfter(handled int) {
	polled := false
	for i := range n.modules {
		p := n.modules[i].poller
		if p == nil {
			continue
		}
		if i != handled || polled {
			p.Poll()
		}
		polled = true
	}
}

// moduleEnv is the namespaced Environment handed to each module.
type moduleEnv struct {
	node  *Node
	index int
}

var _ Environment = (*moduleEnv)(nil)

func (m *moduleEnv) ID() ident.ID     { return m.node.env.ID() }
func (m *moduleEnv) N() (int, bool)   { return m.node.env.N() }
func (m *moduleEnv) Now() Time        { return m.node.env.Now() }
func (m *moduleEnv) Rand() *rand.Rand { return m.node.env.Rand() }
func (m *moduleEnv) PID() PID         { return m.node.env.PID() }

func (m *moduleEnv) Broadcast(payload any) {
	m.node.env.Broadcast(envelope{Module: m.node.modules[m.index].name, Payload: payload})
}

func (m *moduleEnv) SetTimer(d Time, tag int) {
	if tag < 0 {
		panic("sim: module timer tags must be non-negative")
	}
	m.node.env.SetTimer(d, tag*len(m.node.modules)+m.index)
}

func (m *moduleEnv) Note(kind trace.Kind, tag, detail string) {
	m.node.env.Note(kind, tag, detail)
}
