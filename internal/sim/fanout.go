package sim

// Lazy broadcast fan-out.
//
// The engine used to expand a broadcast eagerly: n evDeliver events pushed
// into the heap at send time, one per recipient, each carrying its own
// delay drawn from the engine's main random stream. That makes the queue —
// and therefore memory — O(in-flight copies): at n = 50,000 one heartbeat
// wave alone is 2.5 billion queue entries.
//
// The lazy path keeps ONE live queue entry per in-flight broadcast. The
// trick that makes this possible without storing n delays is making every
// copy's fate a pure function: copy (b, to) of broadcast b draws its
// partial-crash survival, loss, and delay from a private splitmix64 stream
// keyed by (broadcast key, recipient index). Any pass over the recipients
// can then recompute every copy's fate at will, in any order, and always
// get the same answer — so the broadcast's expansion state compresses to
// "which wave is next" instead of "here are n scheduled copies".
//
// Delivery proceeds in waves, one per distinct delay value: the queue
// entry for a broadcast carries the current wave's delay d; popping it
// delivers every copy with fate delay == d (in recipient order, with the
// copy's reserved seq), while the same pass computes the next wave's delay
// (the minimum fate delay > d); the entry is then re-pushed at that wave's
// time, or retired when no wave remains. Because the broadcast reserves
// the contiguous seq interval its copies would have received from the
// eager path, the wave entry can always be keyed by the seq of its
// earliest undelivered copy, and the global (time, seq) pop order — and
// hence every trace byte and every downstream random draw — is identical
// to the eager expansion's. The eager path is retained behind
// Config.EagerFanout as the differential oracle for exactly that claim.
//
// Cost: a broadcast is Θ(n) fate evaluations — the send-time scan is the
// only place a fate is computed — plus Θ(n · waves) byte reads, where
// waves is the number of distinct delay values the model produces (bounded
// by the delay range, e.g. ≤ 10 for Async{MaxDelay: 10} — independent of
// n). The scan writes each fate into a per-broadcast fate table, one byte
// per recipient, and every wave reads the table instead of re-deriving the
// fates. Memory per in-flight broadcast is one queue entry, one fanout
// record and Θ(n) table bytes, the last only while the engine's live
// tables stay under fateTableBudget: a broadcast sent over budget carries
// no table and its waves rescan — Θ(n · waves) fate evaluations, no bytes
// — so however many broadcasts are in flight, population size is never a
// memory dimension beyond that fixed budget.

import (
	"math/rand"

	"repro/internal/trace"
)

// fanSource is a splitmix64 rand.Source64. The engine keeps exactly one,
// wrapped in one reusable *rand.Rand, and reseeds it in place before every
// copy-fate evaluation: per-copy streams cost zero allocation, unlike
// rand.NewSource (which builds a ~5KB lagged-Fibonacci table per call).
type fanSource struct{ state uint64 }

func (s *fanSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (s *fanSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *fanSource) Seed(seed int64) { s.state = uint64(seed) }

var _ rand.Source64 = (*fanSource)(nil)

// fateSeed mixes a broadcast's fate key with a recipient index into the
// seed of that copy's private stream. The finalizer is splitmix64's, so
// adjacent recipients land in statistically unrelated streams.
func fateSeed(key uint64, to int) uint64 {
	x := key + (uint64(to)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// nextFanKey returns the fate key for the next broadcast: a mix of the
// run's seed and the per-engine broadcast counter. Keys — and therefore
// every copy fate in the run — are a pure function of (Config.Seed,
// broadcast order), which is what keeps lazy and eager expansion, and
// serial and parallel sweeps, byte-identical.
func (e *Engine) nextFanKey() uint64 {
	e.bcasts++
	x := uint64(e.cfg.Seed) ^ (e.bcasts * 0xD1342543DE82EF95)
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return x
}

// fateStatus classifies one copy's fate.
type fateStatus int8

const (
	// fateDeliver: the copy is scheduled with the returned delay.
	fateDeliver fateStatus = iota
	// fateLost: the network loses the copy (Model returned ok=false).
	fateLost
	// fatePartialDrop: the sender's CrashDuringBroadcast arm drops the copy.
	fatePartialDrop
)

// copyFate computes the fate of the copy of broadcast (key, sent, from,
// partial, prob) addressed to recipient `to`. It is a pure function of its
// arguments plus the engine's network model: callers may evaluate any
// copy, any number of times, in any order. Delays are clamped to >= 1
// exactly as the eager path clamps them.
func (e *Engine) copyFate(key uint64, sent Time, from int32, partial bool, prob float64, to int) (Time, fateStatus) {
	e.fateEvals++
	e.fanSrc.state = fateSeed(key, to)
	r := e.fanRand
	if partial && r.Float64() >= prob {
		return 0, fatePartialDrop
	}
	var d Time
	var ok bool
	if e.perLink {
		d, ok = e.linkNet.LinkDelay(sent, PID(from), PID(to), r)
	} else {
		d, ok = e.cfg.Net.Delay(sent, r)
	}
	if !ok {
		return 0, fateLost
	}
	if d < 1 {
		d = 1
	}
	return d, fateDeliver
}

// A fate table holds one byte per recipient of one in-flight broadcast,
// written by fanoutScan and read by every wave: fateNone for a recipient
// that gets no copy (lost, or dropped by the sender's partial crash), the
// fate delay itself when it is below fateLate, and fateLate for any longer
// delay, which the wave recomputes through copyFate (pure, so the answer is
// the one the scan saw).
const (
	fateNone = 0
	fateLate = 255
	// fateTableBudget bounds the table bytes live in one engine at any
	// instant. It covers the largest checked-in scenario (n = 50,000 with
	// 100 broadcasts in flight: 4.8 MiB); beyond it broadcasts go without a
	// table, so a dense run at n = 20,000 cannot allocate n² bytes.
	fateTableBudget = 8 << 20
)

// fanoutRec is the per-in-flight-broadcast state of the lazy path. The
// first seven fields are fixed at broadcast time; delay/resumeI advance as
// waves complete. Records are recycled through a freelist, so at steady
// state broadcasting allocates nothing here.
type fanoutRec struct {
	key     uint64  // fate-stream key (nextFanKey)
	baseSeq uint64  // first seq of the reserved copy-seq interval
	sent    Time    // broadcast time, passed to Model.Delay as t
	slot    int32   // payload-table slot, freed when the record retires
	from    int32   // sender, for LinkModel fates
	partial bool    // CrashDuringBroadcast was armed for this broadcast
	prob    float64 // partial-crash per-copy deliver probability
	// fates is the broadcast's fate table, nil when it was sent over
	// budget: its waves then recompute every fate.
	fates []byte
	// delay is the current wave: copies whose fate delay equals it are
	// delivered when the wave entry pops.
	delay Time
	// resumeI is the recipient index delivery resumes at within the
	// current wave, after a mid-wave MaxEvents or predicate stop.
	resumeI int32
}

// allocFates hands out a fate table for a broadcast about to be scanned,
// or nil when another table would take the engine's live table bytes over
// the budget. Tables all have one length, n, and are recycled through a
// freelist: a new one is allocated only when the freelist is empty, so
// live plus free bytes never exceed the budget either, and at steady state
// broadcasting allocates nothing here.
func (e *Engine) allocFates() []byte {
	n := len(e.procs)
	if e.fateBytes+n > e.fateBudget {
		return nil
	}
	e.fateBytes += n
	if k := len(e.freeFates); k > 0 {
		tab := e.freeFates[k-1]
		e.freeFates = e.freeFates[:k-1]
		return tab
	}
	return make([]byte, n)
}

func (e *Engine) freeFateTable(tab []byte) {
	if tab != nil {
		e.fateBytes -= len(tab)
		e.freeFates = append(e.freeFates, tab)
	}
}

// allocFanout stores a record and returns its index.
func (e *Engine) allocFanout(f fanoutRec) int32 {
	if n := len(e.freeFans); n > 0 {
		idx := e.freeFans[n-1]
		e.freeFans = e.freeFans[:n-1]
		e.fanouts[idx] = f
		return idx
	}
	e.fanouts = append(e.fanouts, f)
	return int32(len(e.fanouts) - 1)
}

func (e *Engine) freeFanout(idx int32) {
	e.fanouts[idx] = fanoutRec{}
	e.freeFans = append(e.freeFans, idx)
}

// fanoutScan walks the recipients of a broadcast once at send time: it
// records the loss/partial-crash drop traces (at the broadcast instant,
// exactly as the eager path does), counts the scheduled copies, and finds
// the first wave — the minimum fate delay and the scheduled index of the
// first copy carrying it. It is the one place a copy's fate is decided:
// every fate is written into tab (unless the broadcast got none), and the
// waves read it back. tag is the broadcast's trace tag ("" when the
// recorder retains nothing).
func (e *Engine) fanoutScan(key uint64, from PID, partial bool, prob float64, tag string, tab []byte) (scheduled int, minDelay Time, firstK int32) {
	minDelay = -1
	for to := range e.procs {
		d, st := e.copyFate(key, e.now, int32(from), partial, prob, to)
		b := byte(fateNone)
		switch st {
		case fatePartialDrop:
			if e.rec != nil {
				if e.retain {
					e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDrop, PID: to, MsgTag: tag, Detail: "sender crashed mid-broadcast"})
				} else {
					e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDrop, PID: to})
				}
			}
		case fateLost:
			if e.rec != nil {
				if e.retain {
					e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDrop, PID: to, MsgTag: tag, Detail: "lost"})
				} else {
					e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDrop, PID: to})
				}
			}
		case fateDeliver:
			if minDelay < 0 || d < minDelay {
				minDelay = d
				firstK = int32(scheduled)
			}
			scheduled++
			b = fateLate
			if d < fateLate {
				b = byte(d)
			}
		}
		if tab != nil {
			tab[to] = b
		}
	}
	return scheduled, minDelay, firstK
}

// deliverWave pops one wave of a lazy broadcast: every copy whose fate
// delay equals the record's current wave delay, in recipient order, each
// with its reserved seq. Fates are read from the record's fate table; a
// broadcast without one (sent over budget) and the table's fateLate
// entries recompute them. The same pass finds the next wave (minimum fate
// delay beyond the current one); the entry is re-pushed at that wave's
// time, or the record retires. Mid-wave stops (the MaxEvents guard, a
// RunUntil predicate) re-push the entry keyed by the seq of the first
// undelivered copy, so a later Run resumes exactly where the eager path
// would have.
//
// The record and payload are copied to locals up front: a delivered
// process may broadcast, growing e.fanouts/e.payloads and invalidating
// any held pointers.
func (e *Engine) deliverWave(ev event) StopReason {
	idx := ev.arg
	f := e.fanouts[idx]
	payload := e.payloads[f.slot].payload
	stop := StopNone
	resumeI := -1
	var resumeSeq uint64
	var nextDelay Time = -1
	var nextFirstK int32
	k := int32(0)
	for to := range e.procs {
		var d Time
		if f.fates != nil {
			b := f.fates[to]
			if b == fateNone {
				continue
			}
			d = Time(b)
			if b == fateLate {
				d, _ = e.copyFate(f.key, f.sent, f.from, f.partial, f.prob, to)
			}
		} else {
			var st fateStatus
			d, st = e.copyFate(f.key, f.sent, f.from, f.partial, f.prob, to)
			if st != fateDeliver {
				continue
			}
		}
		ck := k
		k++
		if d < f.delay {
			continue // delivered in an earlier wave
		}
		if d > f.delay {
			if nextDelay < 0 || d < nextDelay {
				nextDelay = d
				nextFirstK = ck
			}
			continue
		}
		if to < int(f.resumeI) {
			continue // delivered before a mid-wave stop
		}
		if stop != StopNone {
			// Already stopping: just find the wave's resume point.
			if resumeI < 0 {
				resumeI = to
				resumeSeq = f.baseSeq + uint64(ck)
			}
			continue
		}
		if e.processed >= e.cfg.MaxEvents {
			stop = StopMaxEvents
			resumeI = to
			resumeSeq = f.baseSeq + uint64(ck)
			continue
		}
		e.deliverCopy(to, payload, f.baseSeq+uint64(ck))
		if e.done != nil && e.done() {
			stop = StopPredicate
		}
	}
	switch {
	case resumeI >= 0:
		e.fanouts[idx].resumeI = int32(resumeI)
		e.requeue(event{time: ev.time, seq: resumeSeq, kind: evFanout, pid: ev.pid, arg: idx})
	case nextDelay >= 0:
		e.fanouts[idx].delay = nextDelay
		e.fanouts[idx].resumeI = 0
		e.requeue(event{time: f.sent + nextDelay, seq: f.baseSeq + uint64(nextFirstK), kind: evFanout, pid: ev.pid, arg: idx})
	default:
		e.freeSlot(f.slot)
		e.freeFateTable(f.fates)
		e.freeFanout(idx)
	}
	return stop
}

// deliverCopy delivers (or drops, if the recipient is down) one fan-out
// copy. It is the lazy path's evDeliver arm: same traces, same counters,
// same observer notification, with seq the copy's reserved position in
// the global event order.
func (e *Engine) deliverCopy(to int, payload any, seq uint64) {
	e.curSeq = int64(seq)
	e.processed++
	pid := PID(to)
	if e.crashed[to] {
		if e.rec != nil {
			if e.retain {
				e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDrop, PID: to, MsgTag: tagOf(payload), Detail: "recipient crashed"})
			} else {
				e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDrop, PID: to})
			}
		}
		e.notifyAfter(pid)
		return
	}
	if e.rec != nil {
		if e.retain {
			e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDeliver, PID: to, MsgTag: tagOf(payload)})
		} else {
			e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDeliver, PID: to})
		}
	}
	e.procs[to].OnMessage(payload)
	e.notifyAfter(pid)
}
