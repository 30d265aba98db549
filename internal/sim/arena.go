package sim

import (
	"reflect"
	"strconv"
)

// arenaMaxPerType bounds the intern arena per payload type. Payload values
// that never repeat (monotone counters, unique intervals) would otherwise
// grow the arena with entries that are never hit; past the cap, Intern
// keeps serving existing entries but stops admitting new ones.
const arenaMaxPerType = 1 << 15

// payloadArena interns boxed payloads by (type, value). It is type-indexed:
// one map[T]any per payload type, discovered via reflect.TypeFor, so
// lookups never box the value being looked up. Engines are single-
// goroutine, so the arena needs no locking.
type payloadArena struct {
	tables map[reflect.Type]any // reflect.Type -> map[T]any
	cmp    map[reflect.Type]bool
	// canon records every box the arena handed out, so non-generic code
	// (the Node envelope wrapper) can ask "was this payload interned?"
	// without knowing its type. Only interned payloads propagate interning
	// outward — never-repeating values must not grow the arena.
	canon map[any]struct{}
}

// interned reports whether p is (value-equal to) a box this arena handed
// out. Callers must have established comparability first (comparableDyn):
// map lookup with an unhashable key panics.
func (a *payloadArena) interned(p any) bool {
	_, ok := a.canon[p]
	return ok
}

// interner is the optional Environment extension through which Intern
// reaches the engine's arena. Both engine-backed environments (*Env and
// the module environment of Node) implement it; other Environment
// implementations simply get Intern's boxing fallback.
type interner interface {
	payloadArena() *payloadArena
}

func (e *Env) payloadArena() *payloadArena { return &e.eng.arena }

// Intern returns a canonical boxed copy of v, allocated at most once per
// distinct value per engine. Broadcasting an interned payload is
// allocation-free: the usual conversion to `any` at the Broadcast call
// site hits the arena's existing box instead of the heap. Periodic
// algorithms (heartbeats, pollers) whose payload values repeat should
// wrap their broadcast payloads in it:
//
//	env.Broadcast(sim.Intern(env, Polling{Round: r, ID: env.ID()}))
//
// If env does not reach an engine arena, or the per-type cap is full,
// Intern degrades to a plain conversion. Interned payloads are shared
// across all processes of the engine (broadcast delivery already shares
// one payload among all receivers), so they must be treated as immutable
// — which the simulator's model requires of every payload anyway.
func Intern[T comparable](env Environment, v T) any {
	h, ok := env.(interner)
	if !ok {
		return v
	}
	a := h.payloadArena()
	if a == nil {
		return v
	}
	t := reflect.TypeFor[T]()
	var m map[T]any
	if tab, ok := a.tables[t]; ok {
		m = tab.(map[T]any)
	} else {
		m = make(map[T]any)
		if a.tables == nil {
			a.tables = make(map[reflect.Type]any)
		}
		a.tables[t] = m
	}
	if b, ok := m[v]; ok {
		return b
	}
	if len(m) >= arenaMaxPerType {
		return v
	}
	var b any = v
	m[v] = b
	if a.canon == nil {
		a.canon = make(map[any]struct{})
	}
	a.canon[b] = struct{}{}
	return b
}

// comparableDyn reports whether a payload's dynamic type supports ==
// (required before interning a value of that type through a map key). The
// verdict is cached per type.
func (a *payloadArena) comparableDyn(payload any) bool {
	rt := reflect.TypeOf(payload)
	if rt == nil {
		return false
	}
	if c, ok := a.cmp[rt]; ok {
		return c
	}
	c := rt.Comparable()
	if a.cmp == nil {
		a.cmp = make(map[reflect.Type]bool)
	}
	a.cmp[rt] = c
	return c
}

// timerDetails caches the "tag=N" detail strings for small timer tags, so
// traced timer events stop allocating one string per event. Tags are tiny
// in practice (module-multiplexed epochs); larger ones fall back to
// formatting.
var timerDetails = func() [64]string {
	var d [64]string
	for i := range d {
		d[i] = "tag=" + strconv.Itoa(i)
	}
	return d
}()

func timerDetail(tag int) string {
	if tag >= 0 && tag < len(timerDetails) {
		return timerDetails[tag]
	}
	return "tag=" + strconv.Itoa(tag)
}
