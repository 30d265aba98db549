package sim

import (
	"repro/internal/trace"
)

// The eager expansion: the engine's first broadcast path, and the oracle of
// the one it has now.
//
// The engine used to expand a broadcast at send time into n evDeliver
// events pushed into the heap, one per recipient, all referencing one
// refcounted slot of a payload table that the last copy to pop freed. That
// makes the queue — and memory — O(in-flight copies), which is why it was
// replaced (fanout.go), but it is also the plainest statement of what a
// broadcast means: every copy is its own queue entry, drawing its seq when
// it is pushed. It stayed in the engine behind Config.EagerFanout as the
// differential oracle until nothing but these tests switched it on; this
// file is that code moved out verbatim — broadcastEager, the evDeliver arm
// of step, the payload table — with eagerRef as the receiver where the
// engine was, because the payload table is state the engine no longer has.
//
// Nothing in the engine knows about it. A process is wrapped so that the
// Environment it is handed broadcasts through eagerRef.broadcast, and
// eagerRef.RunUntil is the engine's run loop popping the reference's own
// event kind itself and handing every other entry to the engine's step.
// Fates still come from the engine's keyed streams (nextFanKey, copyFate),
// which is what makes the two expansions comparable byte for byte; the
// traces the engine's own eager path left for every case of the fan-out
// differentials are pinned in testdata/eager_digests.txt, and the
// reference has to reproduce them.

// evDeliver is the reference's queue entry, one per scheduled copy: arg is
// the payload-table slot. The engine's kinds are positive.
const evDeliver eventKind = -1

// payloadSlot is one entry of the reference's broadcast payload table: the
// boxed payload plus the number of still-undelivered fan-out copies
// referencing it. 24 bytes; recycled through the freelist.
type payloadSlot struct {
	payload any
	refs    int32
}

// eagerRef is an engine whose broadcasts expand eagerly.
type eagerRef struct {
	*Engine
	// payloads is the broadcast payload table: every fan-out copy of one
	// broadcast references the same slot, which is freed to the freelist
	// when its last copy pops.
	payloads  []payloadSlot
	freeSlots []int32
}

// eagerProc hands the process it wraps an Environment that broadcasts
// through the reference. It forwards OnRecover, which the embedded
// interface would hide from the engine.
type eagerProc struct {
	Process
	ref *eagerRef
}

func (p eagerProc) Init(env Environment) {
	p.Process.Init(&eagerEnv{Env: env.(*Env), ref: p.ref})
}

func (p eagerProc) OnRecover() {
	if r, ok := p.Process.(Recoverer); ok {
		r.OnRecover()
	}
}

type eagerEnv struct {
	*Env
	ref *eagerRef
}

func (v *eagerEnv) Broadcast(payload any) { v.ref.broadcast(v.pid, payload) }

// AddProcess binds p behind the wrapper.
func (e *eagerRef) AddProcess(p Process) PID {
	return e.Engine.AddProcess(eagerProc{Process: p, ref: e})
}

// Run is Engine.Run over the reference's loop.
func (e *eagerRef) Run(until Time) int {
	return e.RunUntil(until, nil)
}

// RunUntil is Engine.RunUntil; step is the reference's.
func (e *eagerRef) RunUntil(until Time, done func() bool) int {
	e.start()
	startProcessed := e.processed
	e.done = done
	e.stopped = StopQuiescent
	for len(e.queue) > 0 {
		if e.processed >= e.cfg.MaxEvents {
			e.stopped = StopMaxEvents
			break
		}
		if e.queue[0].time > until {
			e.stopped = StopHorizon
			break
		}
		if r := e.step(); r != StopNone {
			e.stopped = r
			break
		}
	}
	e.done = nil
	if e.stopped == StopQuiescent {
		for i := range e.faults {
			e.faults[i].partial = nil
		}
	}
	return e.processed - startProcessed
}

// step is Engine.step as it stood for an evDeliver entry; any other entry
// is the engine's.
func (e *eagerRef) step() StopReason {
	if e.queue[0].kind != evDeliver {
		return e.Engine.step()
	}
	ev := e.pop()
	e.now = ev.time
	e.curSeq = int64(ev.seq)
	e.processed++
	pid := PID(ev.pid)
	switch ev.kind {
	case evDeliver:
		payload := e.takePayload(ev.arg)
		if e.crashed[pid] {
			e.record(trace.KindDrop, int(pid), tagOf(payload), "recipient crashed")
			break
		}
		if e.rec != nil {
			if e.retain {
				e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDeliver, PID: int(pid), MsgTag: tagOf(payload)})
			} else {
				e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDeliver, PID: int(pid)})
			}
		}
		e.procs[pid].OnMessage(payload)
	}
	e.notifyAfter(pid)
	if e.done != nil && e.done() {
		return StopPredicate
	}
	return StopNone
}

// broadcast is Engine.broadcast as it stood with Config.EagerFanout set.
func (e *eagerRef) broadcast(from PID, payload any) {
	if e.crashed[from] {
		return
	}
	flt := e.fault(from)
	partial := flt != nil && flt.partial != nil && e.now >= flt.partial.after
	prob := 0.0
	if partial {
		prob = flt.partial.deliverProb
	}
	var tag string
	if e.rec != nil {
		// The tag is computed even for stats-only recorders: the per-tag
		// broadcast counts (Stats.ByTag) depend on it. tagOf is
		// allocation-free for Tagger payloads and cached otherwise.
		tag = tagOf(payload)
		e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindBroadcast, PID: int(from), MsgTag: tag})
	}
	key := e.nextFanKey()
	e.broadcastEager(key, from, payload, partial, prob, tag)
	if partial {
		flt.partial = nil
		e.crashed[from] = true
		e.everCrashed[from] = true
		// The crash happens during the event being processed: key it by the
		// current event's (time, seq) so recoveries scheduled at the same
		// instant order against it exactly as the queue will pop them. A
		// crash scheduled even later (CrashAt) keeps precedence.
		flt.lastCrash.latest(schedKey{t: e.now, seq: e.curSeq, set: true})
		e.record(trace.KindCrash, int(from), "", "mid-broadcast")
	}
}

// broadcastEager materializes every copy at send time. It draws fates from
// the same keyed streams as the engine's scan, records the same drop traces
// in the same recipient order, and pushes scheduled copies in that order,
// so copy k receives exactly the seq the engine reserves for it.
func (e *eagerRef) broadcastEager(key uint64, from PID, payload any, partial bool, prob float64, tag string) {
	slot := e.allocSlot(payload)
	copies := int32(0)
	for to := range e.procs {
		d, st := e.copyFate(key, e.now, int32(from), partial, prob, to)
		switch st {
		case fatePartialDrop:
			e.record(trace.KindDrop, to, tag, "sender crashed mid-broadcast")
		case fateLost:
			e.record(trace.KindDrop, to, tag, "lost")
		case fateDeliver:
			e.push(event{time: e.now + d, kind: evDeliver, pid: int32(to), arg: slot})
			copies++
		}
	}
	e.payloads[slot].refs = copies
	if copies == 0 {
		e.freeSlot(slot)
	}
}

// allocSlot stores a broadcast payload in the payload table and returns its
// slot index. Slots are recycled through a freelist.
func (e *eagerRef) allocSlot(payload any) int32 {
	if n := len(e.freeSlots); n > 0 {
		s := e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		e.payloads[s] = payloadSlot{payload: payload}
		return s
	}
	e.payloads = append(e.payloads, payloadSlot{payload: payload})
	return int32(len(e.payloads) - 1)
}

// takePayload reads a delivery's payload and releases one reference; the
// last copy frees the slot (dropping the payload reference for the GC).
func (e *eagerRef) takePayload(slot int32) any {
	s := &e.payloads[slot]
	payload := s.payload
	s.refs--
	if s.refs == 0 {
		e.freeSlot(slot)
	}
	return payload
}

func (e *eagerRef) freeSlot(slot int32) {
	e.payloads[slot] = payloadSlot{}
	e.freeSlots = append(e.freeSlots, slot)
}
