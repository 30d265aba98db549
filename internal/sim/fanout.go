package sim

// Broadcast fan-out: one queue entry and one record per in-flight
// broadcast.
//
// A broadcast is n copies, each with its own delivery time and its own
// place in the global (time, seq) event order, and the engine never holds
// n of anything in the queue for it: at n = 50,000 one heartbeat wave would
// be 2.5 billion entries. What makes one entry enough, without storing n
// delays, is that every copy's fate is a pure function: copy (b, to) of
// broadcast b draws its partial-crash survival, loss, and delay from a
// private splitmix64 stream keyed by (broadcast key, recipient index), the
// Fate the engine reseeds for it (fate.go). Any pass over the recipients
// can recompute every copy's fate at will, in any order, and always get
// the same answer — so a broadcast's state compresses to "which wave is
// next" instead of "here are n scheduled copies".
//
// The state is one fanoutRec: the fate key, the boxed payload and its
// trace tag, the fate table and the wave cursor. broadcast fills it, the
// queue entry's arg names it, and finishWave — the one place a record is
// freed — zeroes it and returns its table once the last wave is done. A
// broadcast that schedules no copy (all lost, or dropped by the sender's
// partial crash) never gets one.
//
// Delivery proceeds in waves, one per distinct delay value: the queue
// entry for a broadcast carries the current wave's delay d; popping it
// delivers every copy with fate delay == d (in recipient order, with the
// copy's reserved seq); the entry is then re-pushed at the next wave's
// time, or retired when no wave remains. At send time the broadcast
// reserves a contiguous seq interval, one seq per scheduled copy in
// recipient order — the seqs n separate queue entries pushed in that order
// would have drawn — so the wave entry can always be keyed by the seq of
// its earliest undelivered copy, and whatever is due at one instant, copies
// of several broadcasts and timers alike, pops in the order it was
// scheduled, copy by copy. That per-copy expansion exists as a test-only
// reference (eager_ref_test.go), and the fan-out tests hold every trace
// byte and every seq to it.
//
// Cost: a broadcast is Θ(n) fate evaluations — the send-time scan is the
// only place a fate is computed — plus Θ(n/8 · waves) word loads, where
// waves is the number of distinct delay values the model produces (bounded
// by the delay range, e.g. ≤ 10 for Async{MaxDelay: 10} — independent of
// n). The scan writes each fate into a per-broadcast fate table, one byte
// per recipient, and notes in the record which byte values occur (a
// 256-bit set, nothing per recipient). A wave therefore knows its
// successor's delay before it starts, and selects its own copies from the
// table eight recipients per load: an exact equal-byte mask picks them, a
// running popcount of the non-zero bytes gives each its reserved seq, and
// a word with no match costs one test (deliverWaveWords; Engine.WaveWords
// counts the loads). Only what a byte cannot say is left to a
// per-recipient loop (deliverWaveFates): the waves of delay ≥ fateLate,
// which recompute the fateLate entries' fates, and the waves of a
// broadcast without a table. Memory per in-flight broadcast is one queue
// entry, one fanout record and Θ(n) table bytes, the last only while the
// engine's live tables stay under fateTableBudget: a broadcast sent over
// budget carries no table and its waves rescan — Θ(n · waves) fate
// evaluations, no bytes — so however many broadcasts are in flight,
// population size is never a memory dimension beyond that fixed budget.
//
// Deliveries and drops — recipient-crashed ones in a wave, lost and
// partial-crash ones in the send-time scan — are counted in plain ints
// when the recorder keeps statistics only, and added to it once, when
// RunUntil returns (on every exit, mid-wave stops included): the recorder's
// Delivered/Dropped are exact whenever Run/RunUntil has returned, and may
// lag inside an AfterEvent hook.

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/trace"
)

// nextFanKey returns the fate key for the next broadcast: a mix of the
// run's seed and the per-engine broadcast counter. Keys — and therefore
// every copy fate in the run — are a pure function of (Config.Seed,
// broadcast order), which is what keeps serial and parallel sweeps
// byte-identical.
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
// copy, any number of times, in any order. Delays are clamped to >= 1.
func (e *Engine) copyFate(key uint64, sent Time, from int32, partial bool, prob float64, to int) (Time, fateStatus) {
	e.fateEvals++
	r := &e.fate
	r.seed(key, to)
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

// delaySet is the set of byte values a broadcast's fate table holds: which
// waves the broadcast has, in 32 bytes whatever the population.
type delaySet [4]uint64

func (s *delaySet) add(b byte) { s[b>>6] |= 1 << (b & 63) }

// after returns the smallest member above b, or 0 (fateNone, never a
// wave) when there is none.
func (s *delaySet) after(b byte) byte {
	for v := int(b) + 1; v < 256; v = (v | 63) + 1 {
		if w := s[v>>6] >> (v & 63); w != 0 {
			return byte(v + bits.TrailingZeros64(w))
		}
	}
	return 0
}

// fanoutRec is everything the engine holds for one in-flight broadcast.
// The fields down to lateK are fixed at broadcast time; delay/resumeI
// advance as waves complete. Records are recycled through a freelist, so at
// steady state broadcasting allocates nothing here.
type fanoutRec struct {
	key     uint64  // fate-stream key (nextFanKey)
	baseSeq uint64  // first seq of the reserved copy-seq interval
	sent    Time    // broadcast time, passed to Model.Delay as t
	from    int32   // sender, for LinkModel fates
	partial bool    // CrashDuringBroadcast was armed for this broadcast
	prob    float64 // partial-crash per-copy deliver probability
	payload any     // the boxed message, the same box for every copy
	// tag is the payload's trace tag, resolved once by broadcast ("" when
	// the engine has no recorder): every copy's deliver or drop event
	// carries it, and no copy looks it up again.
	tag string
	// fates is the broadcast's fate table, nil when it was sent over
	// budget: its waves then recompute every fate.
	fates []byte
	// delays is the set of bytes in the fate table, so a wave names its
	// successor without searching for it.
	delays delaySet
	// lateDelay is the shortest fate delay a table byte cannot hold (0 when
	// every delay fits) and lateK the scheduled index of the first copy
	// carrying it: the wave that follows the last in-range one.
	lateDelay Time
	lateK     int32
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

// fanoutScan walks the recipients of the broadcast f describes (key, sent,
// from, partial, prob, fates) once at send time: it records the
// loss/partial-crash drop traces (at the broadcast instant, in recipient
// order; a stats-only recorder gets them through flushTally), counts the
// scheduled copies, and finds the first wave
// — the minimum fate delay, stored in f.delay, and the scheduled index of
// the first copy carrying it. It is the one place a copy's fate is decided:
// every fate is written into f.fates (unless the broadcast got none) and
// summarized in f.delays/lateDelay/lateK, and the waves read those back.
func (e *Engine) fanoutScan(f *fanoutRec) (scheduled int, firstK int32) {
	var delays delaySet
	var low uint64 // the set's bytes below 64, in a register until the end
	var minDelay, lateDelay Time
	var lateK int32
	for to := range e.procs {
		d, st := e.copyFate(f.key, f.sent, f.from, f.partial, f.prob, to)
		b := byte(fateNone)
		switch {
		case st != fateDeliver && !e.retain:
			e.tally.dropped++
		case st == fatePartialDrop:
			e.record(trace.KindDrop, to, f.tag, "sender crashed mid-broadcast")
		case st == fateLost:
			e.record(trace.KindDrop, to, f.tag, "lost")
		default:
			if minDelay == 0 || d < minDelay {
				minDelay, firstK = d, int32(scheduled)
			}
			if d < fateLate {
				b = byte(d)
			} else {
				b = fateLate
				if lateDelay == 0 || d < lateDelay {
					lateDelay, lateK = d, int32(scheduled)
				}
			}
			scheduled++
		}
		if b < 64 {
			low |= 1 << b
		} else {
			delays.add(b)
		}
		if f.fates != nil {
			f.fates[to] = b
		}
	}
	delays[0] |= low
	f.delay, f.delays, f.lateDelay, f.lateK = minDelay, delays, lateDelay, lateK
	return scheduled, firstK
}

// deliverWave pops one wave of a broadcast: every copy whose fate
// delay equals the record's current wave delay, in recipient order, each
// with its reserved seq; the entry is then re-pushed at the next wave's
// time, or the record retires. Mid-wave stops (the MaxEvents guard, a
// RunUntil predicate) re-push the entry keyed by the seq of the first
// undelivered copy, so a later Run resumes with that copy. A wave whose
// delay a table byte holds is selected from the table a word at a time;
// any other goes recipient by recipient.
//
// The record is copied up front: a delivered process may broadcast,
// growing e.fanouts and invalidating any held pointer into it.
func (e *Engine) deliverWave(ev event) StopReason {
	f := e.fanouts[ev.arg]
	if f.fates != nil && f.delay < fateLate {
		return e.deliverWaveWords(ev, f)
	}
	return e.deliverWaveFates(ev, f)
}

// flushTally adds what the engine tallied since the last flush to a
// stats-only recorder, one Count per kind instead of one Record per event.
// RunUntil flushes on every exit; a retaining recorder has nothing to flush.
func (e *Engine) flushTally() {
	e.rec.Count(trace.KindDeliver, e.tally.delivered)
	e.rec.Count(trace.KindDrop, e.tally.dropped)
	e.rec.Count(trace.KindTimer, e.tally.timers)
	e.tally = tally{}
}

const (
	byteOnes = 0x0101010101010101 // times b: b in every byte
	byteLow7 = 0x7F7F7F7F7F7F7F7F
	byteHigh = 0x8080808080808080
)

// nonzeroBytes returns the top bit of every byte of x that is not zero, and
// of no other: the low seven bits of a byte carry into its top bit exactly
// when one of them is set, and never beyond it. (The shorter
// (x-byteOnes)&^x test is exact only up to the first zero byte: its borrow
// flags the byte 0x01 that follows one.)
func nonzeroBytes(x uint64) uint64 {
	return ((x&byteLow7 + byteLow7) | x) & byteHigh
}

// deliverWaveWords delivers the wave f.delay < fateLate of a broadcast with
// a fate table, eight table bytes per load. With nz the non-zero bytes of a
// word — its scheduled copies — the wave's copies are the bytes equal to
// the delay, the copy at byte j has scheduled index (copies in earlier
// words) + popcount(nz below j), and a word holding none is left after one
// test. The successor wave is known from f.delays; the scan only has to
// find its first copy.
func (e *Engine) deliverWaveWords(ev event, f fanoutRec) StopReason {
	tab := f.fates
	payload, tag := f.payload, f.tag
	next := f.delays.after(byte(f.delay))
	nextDelay, nextK := Time(next), -1
	switch next {
	case fateNone: // this is the last wave
		nextK = 0
	case fateLate:
		nextDelay, nextK = f.lateDelay, int(f.lateK)
	}
	cur, nxt := byteOnes*uint64(f.delay), byteOnes*uint64(next)
	resumeI := int(f.resumeI)
	stop := StopNone
	k := 0 // scheduled copies in the words before this one
	for i := 0; i < len(tab); i += 8 {
		var x uint64
		if i+8 <= len(tab) {
			x = binary.LittleEndian.Uint64(tab[i:])
		} else {
			for j, b := range tab[i:] {
				x |= uint64(b) << (8 * j)
			}
		}
		e.waveWords++
		nz := nonzeroBytes(x)
		if nz == 0 {
			continue
		}
		if nextK < 0 {
			if m := byteHigh &^ nonzeroBytes(x^nxt); m != 0 {
				nextK = k + bits.OnesCount64(nz&((m&-m)-1))
			}
		}
		m := byteHigh &^ nonzeroBytes(x^cur)
		if i < resumeI { // delivered before a mid-wave stop
			if resumeI-i >= 8 {
				m = 0
			} else {
				m &= ^uint64(0) << (8 * (resumeI - i))
			}
		}
		for m != 0 {
			bit := bits.TrailingZeros64(m)
			to := i + bit>>3
			seq := f.baseSeq + uint64(k+bits.OnesCount64(nz&(1<<bit-1)))
			if stop == StopNone && e.processed >= e.cfg.MaxEvents {
				stop = StopMaxEvents
			}
			if stop != StopNone {
				e.suspendWave(ev, to, seq)
				return stop
			}
			m &= m - 1
			e.deliverCopy(to, payload, tag, seq)
			if e.done != nil && e.done() {
				stop = StopPredicate // and find where the wave resumes
			}
		}
		k += bits.OnesCount64(nz)
	}
	e.finishWave(ev, &f, nextDelay, int32(nextK))
	return stop
}

// deliverWaveFates delivers a wave recipient by recipient, taking each
// fate delay from copyFate: every wave of a broadcast without a table, and
// of one with a table the waves of delay >= fateLate, whose copies are
// among the table's fateLate entries. The same pass finds the next wave,
// the minimum fate delay beyond this one.
func (e *Engine) deliverWaveFates(ev event, f fanoutRec) StopReason {
	payload, tag := f.payload, f.tag
	stop := StopNone
	var nextDelay Time
	var nextK int32
	k := int32(0)
	for to := range e.procs {
		if f.fates != nil {
			if b := f.fates[to]; b != fateLate {
				if b != fateNone {
					k++ // delivered by an in-range wave
				}
				continue
			}
		}
		d, st := e.copyFate(f.key, f.sent, f.from, f.partial, f.prob, to)
		if st != fateDeliver {
			continue
		}
		ck := k
		k++
		if d < f.delay {
			continue // delivered in an earlier wave
		}
		if d > f.delay {
			if nextDelay == 0 || d < nextDelay {
				nextDelay, nextK = d, ck
			}
			continue
		}
		if to < int(f.resumeI) {
			continue // delivered before a mid-wave stop
		}
		if stop == StopNone && e.processed >= e.cfg.MaxEvents {
			stop = StopMaxEvents
		}
		if stop != StopNone {
			e.suspendWave(ev, to, f.baseSeq+uint64(ck))
			return stop
		}
		e.deliverCopy(to, payload, tag, f.baseSeq+uint64(ck))
		if e.done != nil && e.done() {
			stop = StopPredicate // and find where the wave resumes
		}
	}
	e.finishWave(ev, &f, nextDelay, nextK)
	return stop
}

// suspendWave re-pushes a wave that stopped short of its copy for
// recipient to, keyed by that copy's seq.
func (e *Engine) suspendWave(ev event, to int, seq uint64) {
	e.fanouts[ev.arg].resumeI = int32(to)
	ev.seq = seq
	e.requeue(ev)
}

// finishWave moves a broadcast whose current wave is done on to the wave
// of delay next, whose first copy has scheduled index nextK, or retires it
// when next is 0: the table goes back to its freelist and the record is
// zeroed, which lets go of the payload.
func (e *Engine) finishWave(ev event, f *fanoutRec, next Time, nextK int32) {
	if next == 0 {
		e.freeFateTable(f.fates)
		e.freeFanout(ev.arg)
		return
	}
	r := &e.fanouts[ev.arg]
	r.delay, r.resumeI = next, 0
	ev.time, ev.seq = f.sent+next, f.baseSeq+uint64(nextK)
	e.requeue(ev)
}

// deliverCopy delivers (or drops, if the recipient is down) one fan-out
// copy — the one place either happens. A copy is an event like a timer or
// a crash: it counts as processed, notifies the observers, and takes seq,
// its reserved position in the global event order, as the current one.
// tag is the broadcast's trace tag, resolved at send time (fanoutRec.tag).
// What a retaining recorder gets as an event, any other gets as a count,
// through flushTally.
func (e *Engine) deliverCopy(to int, payload any, tag string, seq uint64) {
	e.curSeq = int64(seq)
	e.processed++
	pid := PID(to)
	if e.crashed[to] {
		if e.retain {
			e.record(trace.KindDrop, to, tag, "recipient crashed")
		} else {
			e.tally.dropped++
		}
		e.notifyAfter(pid)
		return
	}
	if e.retain {
		e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindDeliver, PID: to, MsgTag: tag})
	} else {
		e.tally.delivered++
	}
	e.unsnooze(pid)
	e.procs[to].OnMessage(payload)
	e.notifyAfter(pid)
}
