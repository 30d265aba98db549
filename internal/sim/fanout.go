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
// entry for a broadcast carries the current wave's delay d; when it
// reaches the heap root it delivers every copy with fate delay == d (in
// recipient order, with the copy's reserved seq) while it stays there,
// parked, and is then re-keyed in place to the next wave's time and first
// copy — one sift down, as a fired timer is re-armed — or popped when no
// wave remains. At send time the broadcast reserves a contiguous seq
// interval, one seq per scheduled copy in recipient order — the seqs n
// separate queue entries pushed in that order would have drawn — so the
// wave entry can always be keyed by the seq of its earliest undelivered
// copy, and whatever is due at one instant, copies of several broadcasts
// and timers alike, pops in the order it was scheduled, copy by copy. That per-copy expansion exists as a test-only
// reference (eager_ref_test.go), and the fan-out tests hold every trace
// byte and every seq to it.
//
// Cost: a broadcast is Θ(n) fate evaluations — the send-time scan is where
// a fate is decided — plus Θ(n/16 · waves) word loads, where waves is the
// number of distinct delay values the model produces (bounded by the delay
// range, e.g. ≤ 10 for Async{MaxDelay: 10} — independent of n). The scan
// codes each fate into a per-broadcast fate table, half a byte per
// recipient, and notes in the record which codes occur (a 16-bit set,
// nothing per recipient). A wave therefore knows its successor's delay
// before it starts, and selects its own copies from the table sixteen
// recipients per load: an exact equal-nibble mask picks them, a running
// popcount of the non-zero nibbles gives each its reserved seq, and a word
// with no match costs one test (deliverWaveWords; Engine.WaveWords counts
// the loads). A code holds 13 delays past the table's base; when those
// waves are done and later copies remain, one pass over the table
// (rebase) recodes it from the shortest remaining delay, computing only
// those copies' fates again — one more evaluation each. For the paper's
// timing models, Async and PartialSync, every copy's fate is a uniform
// delay and nothing else (uniformLaw), and the scan and the rebase draw it
// with the stream in a local Fate; every other model, and a sender
// crashing mid-broadcast, goes through copyFate and the Model interface.
// Memory per in-flight broadcast is one queue entry, one fanout record and
// Θ(n/2) table bytes, the last only while the engine's live tables stay
// under fateTableBudget: a broadcast sent over budget carries no table and
// its waves rescan recipient by recipient (deliverWaveFates) — Θ(n ·
// waves) fate evaluations, no bytes — so however many broadcasts are in
// flight, population size is never a memory dimension beyond that fixed
// budget.
//
// Deliveries and drops — recipient-crashed ones in a wave, lost and
// partial-crash ones in the send-time scan — are counted in plain ints
// when the recorder keeps statistics only, and added to it once, when
// RunUntil returns (on every exit, mid-wave stops included): the recorder's
// Delivered/Dropped are exact whenever Run/RunUntil has returned, and may
// lag inside an AfterEvent hook.

import (
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

// A fate table holds one half-byte code (nibble) per recipient of one
// in-flight broadcast, sixteen recipients to a word, written by fanoutScan
// and read by every wave. A code says where the copy's fate delay lies
// against the record's base:
//
//	0      no copy (lost, or dropped by the sender's partial crash)
//	1..13  a copy of delay base+code
//	14     a copy delivered in an earlier range
//	15     a late copy: its delay is past base+13
//
// base starts at 0. Once the waves of codes 1..13 are done and late copies
// remain, rebase recodes the table against the shortest late delay; only
// the late copies' fates are computed again (pure, so the answers are the
// ones the scan saw).
const (
	codeNone = 0
	codeMax  = 13
	codeDone = 14
	codeLate = 15
	// fateTableBudget bounds the table bytes live in one engine at any
	// instant. It covers the largest checked-in scenario (n = 50,000 with
	// 100 broadcasts in flight: 2.4 MiB); beyond it broadcasts go without a
	// table, so a dense run at n = 20,000 cannot allocate n²/2 bytes.
	fateTableBudget = 8 << 20
)

// tableWords is the length of a fate table for n recipients.
func tableWords(n int) int { return (n + 15) / 16 }

// fanoutRec is everything the engine holds for one in-flight broadcast.
// The fields down to fates are fixed at broadcast time; base/codes/
// lateDelay/lateK change when the table is rebased, delay/resumeI as waves
// complete. Records are recycled through a freelist, so at steady state
// broadcasting allocates nothing here.
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
	// carries it, and no copy looks it up again. tagRef, last, is its ref
	// in a retaining recorder's string table, which each delivery records.
	tag string
	// fates is the broadcast's fate table, nil when it was sent over
	// budget: its waves then recompute every fate.
	fates []uint64
	// base is the delay the table's codes 1..13 count from.
	base Time
	// codes is the set of codes 1..13 and codeLate the table holds, bit c
	// for code c, so a wave names its successor without searching for it.
	codes uint16
	// lateDelay is the shortest fate delay of a late copy (0 when there is
	// none) and lateK the scheduled index of the first copy carrying it:
	// the wave that follows the last one in range, and the next rebase.
	lateDelay Time
	lateK     int32
	// delay is the current wave: copies whose fate delay equals it are
	// delivered when the wave entry pops.
	delay Time
	// resumeI is the recipient index delivery resumes at within the
	// current wave, after a mid-wave MaxEvents or predicate stop.
	resumeI int32
	tagRef  trace.Ref // beside resumeI, in what would be padding
}

// allocFates hands out a fate table for a broadcast about to be scanned,
// or nil when another table would take the engine's live table bytes over
// the budget. Tables all have one length, ⌈n/16⌉ words, and are recycled
// through a freelist: a new one is allocated only when the freelist is
// empty, so live plus free bytes never exceed the budget either, and at
// steady state broadcasting allocates nothing here. The scan overwrites
// every word of a recycled table.
func (e *Engine) allocFates() []uint64 {
	words := tableWords(len(e.procs))
	if e.fateBytes+8*words > e.fateBudget {
		return nil
	}
	e.fateBytes += 8 * words
	if k := len(e.freeFates); k > 0 {
		tab := e.freeFates[k-1]
		e.freeFates = e.freeFates[:k-1]
		return tab
	}
	return make([]uint64, words)
}

func (e *Engine) freeFateTable(tab []uint64) {
	if tab != nil {
		e.fateBytes -= 8 * len(tab)
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

// uniformLaw reports whether every copy of broadcast f draws its delay as
// lo + Int63n(span) and makes no other draw, and the bounds if so: the
// network is one of the paper's two timing models (Engine.uniform), its
// bounds say so at f.sent, and the sender is not crashing mid-broadcast,
// which would draw each copy's survival first. The scan and the rebase then
// draw such a copy's delay themselves, with the stream in a local Fate,
// instead of going through copyFate and the Model interface; copyFate
// stays the reference they must agree with.
func (e *Engine) uniformLaw(f *fanoutRec) (lo Time, span int64, ok bool) {
	if e.uniform == nil || f.partial {
		return 0, 0, false
	}
	return e.uniform.bounds(f.sent)
}

// tableCoder accumulates what a send-time scan learns about a broadcast's
// scheduled copies: the words of its fate table (tab, nil for none; last is
// the last recipient) and the record's summary of them. A word is built in
// a register and stored once, when its last recipient is done.
type tableCoder struct {
	tab                 []uint64
	last                int
	word                uint64
	codes               uint16
	minDelay, lateDelay Time
	firstK, lateK       int32
}

// add codes the copy for recipient to, with scheduled index k and fate
// delay d, against base 0.
func (c *tableCoder) add(to int, k int32, d Time) {
	if c.minDelay == 0 || d < c.minDelay {
		c.minDelay, c.firstK = d, k
	}
	code := uint64(codeLate)
	if d <= codeMax {
		code = uint64(d)
	} else if c.lateDelay == 0 || d < c.lateDelay {
		c.lateDelay, c.lateK = d, k
	}
	c.codes |= 1 << code
	c.word |= code << (4 * (to & 15))
}

// done ends recipient to, coded or not (codeNone): the last of a word
// stores it.
func (c *tableCoder) done(to int) {
	if to&15 == 15 || to == c.last {
		if c.tab != nil {
			c.tab[to>>4] = c.word
		}
		c.word = 0
	}
}

// fanoutScan walks the recipients of the broadcast f describes (key, sent,
// from, partial, prob, fates) once at send time: it records the
// loss/partial-crash drop traces (at the broadcast instant, in recipient
// order; a stats-only recorder gets them through flushTally), counts the
// scheduled copies, and finds the first wave
// — the minimum fate delay, stored in f.delay, and the scheduled index of
// the first copy carrying it. It is the one place a copy's fate is decided:
// every fate is coded into f.fates (unless the broadcast got none) and
// summarized in f.codes/lateDelay/lateK, and the waves read those back.
func (e *Engine) fanoutScan(f *fanoutRec) (scheduled int, firstK int32) {
	c := tableCoder{tab: f.fates, last: len(e.procs) - 1}
	if lo, span, ok := e.uniformLaw(f); ok {
		// Every copy is scheduled; draw each delay here (uniformLaw).
		n := len(e.procs)
		e.fateEvals += uint64(n)
		var r Fate
		for to := 0; to < n; to++ {
			r.src.state = fateSeed(f.key, to)
			c.add(to, int32(to), lo+Time(r.Int63n(span)))
			c.done(to)
		}
		scheduled = n
	} else {
		for to := range e.procs {
			d, st := e.copyFate(f.key, f.sent, f.from, f.partial, f.prob, to)
			switch {
			case st != fateDeliver && !e.retain:
				e.tally.dropped++
			case st == fatePartialDrop:
				e.record(trace.KindDrop, to, f.tag, "sender crashed mid-broadcast")
			case st == fateLost:
				e.record(trace.KindDrop, to, f.tag, "lost")
			default:
				c.add(to, int32(scheduled), d)
				scheduled++
			}
			c.done(to)
		}
	}
	f.delay, f.codes, f.lateDelay, f.lateK = c.minDelay, c.codes, c.lateDelay, c.lateK
	return scheduled, c.firstK
}

// deliverWave delivers one wave of the broadcast whose record is
// e.fanouts[idx] and whose entry is parked at the heap root: every copy
// whose fate delay equals the record's current wave delay, in recipient
// order, each with its reserved seq; the entry is then re-keyed to the
// next wave's time and first copy, or popped as the record retires.
// Mid-wave stops (the MaxEvents guard, a RunUntil predicate) re-key the
// entry to the seq of the first undelivered copy, so a later Run resumes
// with that copy. A broadcast with a fate table selects each wave from it
// a word at a time; one without goes recipient by recipient.
//
// Neither holds a pointer into e.fanouts across a delivery: a delivered
// process may broadcast, growing the slice and invalidating it.
func (e *Engine) deliverWave(idx int32) StopReason {
	if e.fanouts[idx].fates != nil {
		return e.deliverWaveWords(idx)
	}
	return e.deliverWaveFates(idx)
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
	nibOnes = 0x1111111111111111 // times c: c in every nibble
	nibLow3 = 0x7777777777777777
	nibHigh = 0x8888888888888888
)

// nonzeroNibbles returns the top bit of every nibble of x that is not zero,
// and of no other: the low three bits of a nibble carry into its top bit
// exactly when one of them is set, and never beyond it. (The shorter
// (x-nibOnes)&^x test is exact only up to the first zero nibble: its
// borrow flags the nibble 1 that follows one.)
func nonzeroNibbles(x uint64) uint64 {
	return ((x&nibLow3 + nibLow3) | x) & nibHigh
}

// deliverWaveWords delivers the wave f.delay of a broadcast with a fate
// table, sixteen codes per load, rebasing the table first when the wave is
// its shortest late delay. With nz the non-zero nibbles of a word — its
// scheduled copies — the wave's copies are the nibbles equal to its code,
// the copy at nibble j has scheduled index (copies in earlier words) +
// popcount(nz below j), and a word holding none is left after one test.
// The successor wave is known from f.codes; the scan only has to find its
// first copy. The record is read in place, into locals, before the first
// delivery, and not touched again until finishWave or suspendWave look it
// up anew.
func (e *Engine) deliverWaveWords(idx int32) StopReason {
	f := &e.fanouts[idx]
	if f.delay-f.base > codeMax {
		e.rebase(f)
	}
	tab, baseSeq, resumeI := f.fates, f.baseSeq, int(f.resumeI)
	payload, tag, tagRef := f.payload, f.tag, f.tagRef
	cur := uint64(f.delay - f.base)
	next := uint64(0) // the next code in the table: 0 when there is none
	if above := f.codes >> (cur + 1); above != 0 {
		next = cur + 1 + uint64(bits.TrailingZeros16(above))
	}
	nextDelay, nextK := f.base+Time(next), -1
	switch next {
	case codeNone: // this is the last wave
		nextDelay, nextK = 0, 0
	case codeLate:
		nextDelay, nextK = f.lateDelay, int(f.lateK)
	}
	curW, nxtW := nibOnes*cur, nibOnes*next
	stop := StopNone
	k := 0 // scheduled copies in the words before this one
	for w, x := range tab {
		e.waveWords++
		nz := nonzeroNibbles(x)
		if nz == 0 {
			continue
		}
		i := 16 * w
		if nextK < 0 {
			if m := nibHigh &^ nonzeroNibbles(x^nxtW); m != 0 {
				nextK = k + bits.OnesCount64(nz&((m&-m)-1))
			}
		}
		m := nibHigh &^ nonzeroNibbles(x^curW)
		if i < resumeI { // delivered before a mid-wave stop
			if resumeI-i >= 16 {
				m = 0
			} else {
				m &= ^uint64(0) << (4 * (resumeI - i))
			}
		}
		for m != 0 {
			bit := bits.TrailingZeros64(m)
			to := i + bit>>2
			seq := baseSeq + uint64(k+bits.OnesCount64(nz&(1<<bit-1)))
			if stop == StopNone && e.processed >= e.cfg.MaxEvents {
				stop = StopMaxEvents
			}
			if stop != StopNone {
				e.suspendWave(idx, to, seq)
				return stop
			}
			m &= m - 1
			e.deliverCopy(to, payload, tag, tagRef, seq)
			if e.done != nil && e.done() {
				stop = StopPredicate // and find where the wave resumes
			}
		}
		k += bits.OnesCount64(nz)
	}
	e.finishWave(idx, nextDelay, int32(nextK))
	return stop
}

// rebase recodes the table of a broadcast whose wave f.delay is its
// shortest late delay, against base f.delay-1, a word at a time: every
// copy of the earlier range becomes codeDone, and only the late copies'
// fates are computed again — one fate evaluation each — and coded in the
// new range, or late again beyond it. f's base, codes and late wave are
// replaced.
func (e *Engine) rebase(f *fanoutRec) {
	base := f.delay - 1
	lo, span, uniform := e.uniformLaw(f)
	var r Fate
	var codes uint16
	var lateDelay Time
	var lateK int32
	k := 0 // scheduled copies in the words before this one
	for w, x := range f.fates {
		nz := nonzeroNibbles(x)
		if nz == 0 {
			continue
		}
		late := nibHigh &^ nonzeroNibbles(x^(nibOnes*codeLate))
		y := nz >> 3 * codeDone
		for late != 0 {
			bit := bits.TrailingZeros64(late)
			late &= late - 1
			to := 16*w + bit>>2
			var d Time
			if uniform {
				e.fateEvals++
				r.src.state = fateSeed(f.key, to)
				d = lo + Time(r.Int63n(span))
			} else {
				d, _ = e.copyFate(f.key, f.sent, f.from, f.partial, f.prob, to)
			}
			code := uint64(d - base)
			if code > codeMax {
				code = codeLate
				if lateDelay == 0 || d < lateDelay {
					lateDelay, lateK = d, int32(k+bits.OnesCount64(nz&(1<<bit-1)))
				}
			}
			codes |= 1 << code
			y ^= (code ^ codeDone) << (bit - 3)
		}
		f.fates[w] = y
		k += bits.OnesCount64(nz)
	}
	f.base, f.codes, f.lateDelay, f.lateK = base, codes, lateDelay, lateK
}

// deliverWaveFates delivers a wave of a broadcast sent without a fate
// table, recipient by recipient, taking each fate delay from copyFate. The
// same pass finds the next wave, the minimum fate delay beyond this one.
// It works on a copy of the record: every recipient's fate reads it.
func (e *Engine) deliverWaveFates(idx int32) StopReason {
	f := e.fanouts[idx]
	payload, tag, tagRef := f.payload, f.tag, f.tagRef
	stop := StopNone
	var nextDelay Time
	var nextK int32
	k := int32(0)
	for to := range e.procs {
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
			e.suspendWave(idx, to, f.baseSeq+uint64(ck))
			return stop
		}
		e.deliverCopy(to, payload, tag, tagRef, f.baseSeq+uint64(ck))
		if e.done != nil && e.done() {
			stop = StopPredicate // and find where the wave resumes
		}
	}
	e.finishWave(idx, nextDelay, nextK)
	return stop
}

// suspendWave re-keys the parked entry of a wave that stopped short of its
// copy for recipient to by that copy's seq, at the present time.
func (e *Engine) suspendWave(idx int32, to int, seq uint64) {
	e.fanouts[idx].resumeI = int32(to)
	e.rekey(e.now, seq)
}

// finishWave moves the broadcast of record idx, whose current wave is
// done, on to the wave of delay next, whose first copy has scheduled index
// nextK — its parked entry is re-keyed to that copy — or retires it when
// next is 0: the entry is popped, the table goes back to its freelist and
// the record is zeroed, which lets go of the payload.
func (e *Engine) finishWave(idx int32, next Time, nextK int32) {
	f := &e.fanouts[idx]
	if next == 0 {
		e.freeFateTable(f.fates)
		e.freeFanout(idx)
		e.popParked()
		return
	}
	f.delay, f.resumeI = next, 0
	e.rekey(f.sent+next, f.baseSeq+uint64(nextK))
}

// deliverCopy delivers (or drops, if the recipient is down) one fan-out
// copy — the one place either happens. A copy is an event like a timer or
// a crash: it counts as processed, notifies the observers, and takes seq,
// its reserved position in the global event order, as the current one.
// tag and tagRef are the broadcast's trace tag and its recorder ref,
// resolved at send time (fanoutRec.tag). What a retaining recorder gets
// as an event, any other gets as a count, through flushTally.
func (e *Engine) deliverCopy(to int, payload any, tag string, tagRef trace.Ref, seq uint64) {
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
		e.rec.RecordDeliver(int64(e.now), to, tagRef)
	} else {
		e.tally.delivered++
	}
	e.unsnooze(pid)
	e.procs[to].OnMessage(payload)
	e.notifyAfter(pid)
}
