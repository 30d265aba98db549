// Package hostspeed is the benchmark's fixed reference kernel: a few
// hundred milliseconds of memory-bound work that never changes with the
// repository, timed beside every rep so that a rep's time can be stated
// relative to how fast the host was at that moment.
//
// It exists because the sandbox host is not one machine over time. Its
// clock is steady (an integer spin loop repeats within 4%), but its memory
// system is shared: over half an hour the same binary on the same input
// runs up to 45% slower or faster, in phases lasting from tens of seconds
// to minutes. The three parts below were chosen for tracking that: each
// correlates 0.6-0.85 with the four workloads' rep times, and dividing by
// their sum halved the spread of per-run medians and took the drift
// between two sets of runs from 7-12% to 0-9% (bench/README.md,
// "Host-speed normalisation").
package hostspeed

import (
	"encoding/binary"
	"time"
)

// NominalS is what Run took on the 2-vCPU 2.1 GHz Xeon sandbox averaged
// over the half hour it was chosen in (0.67 s in the host's fast phases,
// over 1 s in its slow ones). Times are multiplied by NominalS/measured,
// so on that host on average normalised and raw seconds coincide.
const NominalS = 0.75

// Kernel holds the buffers the parts walk; they are allocated once so a
// reading never pays for, or waits on, the garbage collector.
type Kernel struct {
	table  []uint32 // 64 MiB: far beyond any cache level
	stream []byte   // 48 MiB of varints, the size of a live20k trace
	heard  []uint64
	heap   []event
	sink   uint64
}

// event is the size and shape of the engine's queue entries.
type event struct {
	t, seq uint64
	pid    uint32
	kind   uint32
	arg    uint64
}

// New allocates and fills the buffers.
func New() *Kernel {
	k := &Kernel{
		table: make([]uint32, 16<<20),
		heard: make([]uint64, 20000),
		heap:  make([]event, 0, 4096),
	}
	for i := range k.table {
		k.table[i] = uint32(i)
	}
	x := uint64(1)
	for len(k.stream) < 48<<20 {
		x = x*6364136223846793005 + 1442695040888963407
		k.stream = binary.AppendUvarint(k.stream, (x>>40)%100000)
	}
	return k
}

// Run does the fixed work once and returns how long it took.
func (k *Kernel) Run() time.Duration {
	start := time.Now()
	k.randomAccess()
	k.eventLoop()
	k.decode()
	return time.Since(start)
}

// randomAccess makes 12 M dependent-address updates over the table: the
// cost of a cache miss, which is what a population of 20000 processes
// mostly pays.
func (k *Kernel) randomAccess() {
	idx := uint32(1)
	n := uint32(len(k.table))
	for i := 0; i < 12_000_000; i++ {
		idx = idx*1664525 + 1013904223
		k.table[idx%n] += idx
	}
}

// eventLoop pops and pushes 2.5 M entries on a 4-ary min-heap of 32-byte
// events ordered by (time, seq), touching a few per-process slots per
// event: the engine's inner loop in miniature.
func (k *Kernel) eventLoop() {
	h := k.heap[:0]
	less := func(a, b *event) bool { return a.t < b.t || (a.t == b.t && a.seq < b.seq) }
	push := func(e event) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 4
			if !less(&h[i], &h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() event {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			m := i
			for c := 4*i + 1; c <= 4*i+4 && c < len(h); c++ {
				if less(&h[c], &h[m]) {
					m = c
				}
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	x := uint64(88172645463325252)
	rnd := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	n := uint64(len(k.heard))
	var seq uint64
	for i := 0; i < 2000; i++ {
		seq++
		push(event{t: rnd() % 100, seq: seq, pid: uint32(rnd() % n)})
	}
	for i := 0; i < 2_500_000; i++ {
		e := pop()
		k.heard[e.pid]++
		for j := 0; j < 3; j++ {
			k.heard[rnd()%n]++
		}
		seq++
		push(event{t: e.t + 1 + rnd()%8, seq: seq, pid: uint32(rnd() % n)})
	}
	k.sink += k.heard[7]
}

// decode reads the varint stream front to back: a trace replay's access
// pattern.
func (k *Kernel) decode() {
	var sum uint64
	for b := k.stream; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		sum += v
		b = b[n:]
	}
	k.sink += sum
}
