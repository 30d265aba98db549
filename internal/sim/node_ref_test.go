package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/ident"
	"repro/internal/trace"
)

// refNode is Node as it was before it learnt to skip a poll: after every
// event it polls every Poller, including the module whose handler just
// returned. It is kept verbatim (names aside; the envelope type is shared,
// so ref and production nodes interoperate on one engine) as the reference
// TestNodeMatchesReference holds Node to.
type refNode struct {
	modules []namedModule
	byName  map[string]int
	env     Environment
}

func newRefNode() *refNode {
	return &refNode{byName: make(map[string]int)}
}

// Add attaches a module under a unique name and returns the node for
// chaining. It panics on duplicate names (an experiment-setup error).
func (n *refNode) Add(name string, p Process) *refNode {
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("sim: duplicate module name %q", name))
	}
	n.byName[name] = len(n.modules)
	n.modules = append(n.modules, namedModule{name: name, proc: p})
	return n
}

// Init implements Process.
func (n *refNode) Init(env Environment) {
	n.env = env
	for i, m := range n.modules {
		m.proc.Init(&refModuleEnv{node: n, index: i})
	}
	n.pollAll()
}

// OnMessage implements Process: it unwraps the envelope and dispatches to
// the addressed module. Messages for modules this node does not run are
// ignored (heterogeneous deployments are legal).
func (n *refNode) OnMessage(payload any) {
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
	if i, ok := n.byName[env.Module]; ok {
		n.modules[i].proc.OnMessage(env.Payload)
	}
	n.pollAll()
}

// OnRecover implements Recoverer: it forwards the recovery to every module
// that restarts after an outage, then re-polls guard conditions.
func (n *refNode) OnRecover() {
	for _, m := range n.modules {
		if r, ok := m.proc.(Recoverer); ok {
			r.OnRecover()
		}
	}
	n.pollAll()
}

// OnTimer implements Process, demultiplexing the namespaced timer tag.
func (n *refNode) OnTimer(tag int) {
	k := len(n.modules)
	idx, inner := tag%k, tag/k
	n.modules[idx].proc.OnTimer(inner)
	n.pollAll()
}

func (n *refNode) pollAll() {
	for _, m := range n.modules {
		if p, ok := m.proc.(Poller); ok {
			p.Poll()
		}
	}
}

// refModuleEnv is the namespaced Environment handed to each module.
type refModuleEnv struct {
	node  *refNode
	index int
}

func (m *refModuleEnv) ID() ident.ID     { return m.node.env.ID() }
func (m *refModuleEnv) N() (int, bool)   { return m.node.env.N() }
func (m *refModuleEnv) Now() Time        { return m.node.env.Now() }
func (m *refModuleEnv) Rand() *rand.Rand { return m.node.env.Rand() }
func (m *refModuleEnv) PID() PID         { return m.node.env.PID() }
func (m *refModuleEnv) Changed()         { m.node.env.Changed() }

func (m *refModuleEnv) Broadcast(payload any) {
	env := envelope{Module: m.node.modules[m.index].name, Payload: payload}
	m.node.env.Broadcast(env)
}

func (m *refModuleEnv) SetTimer(d Time, tag int) {
	if tag < 0 {
		panic("sim: module timer tags must be non-negative")
	}
	m.node.env.SetTimer(d, tag*len(m.node.modules)+m.index)
}

// Snooze drops the hint: the reference dispatches every timer.
func (m *refModuleEnv) Snooze(Time, int, Time) {}

func (m *refModuleEnv) Note(kind trace.Kind, tag, detail string) {
	m.node.env.Note(kind, tag, detail)
}
