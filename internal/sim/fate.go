package sim

import "math/rand"

// Fate is the private random stream of one message copy: copy (key, to)
// of the broadcast whose fate key is key (nextFanKey), addressed to
// recipient to. A Model draws the copy's loss and delay from it, and
// nothing else does. The engine owns exactly one Fate and reseeds it in
// place before every copy-fate evaluation (copyFate), so per-copy streams
// cost no allocation.
//
// Its draws are math/rand's: Int63n and Float64 reproduce (*rand.Rand)'s
// algorithms bit for bit over the splitmix64 source, and NormFloat64 is a
// rand.Rand over the same state, so a model moved from *rand.Rand to *Fate
// consumes the same values in the same order and every fate stays what it
// was. Use a Fate through its pointer: the NormFloat64 delegate refers to
// the Fate it was built for.
type Fate struct {
	src fanSource
	key uint64
	to  int
	// n and notMax cache Int63n's rejection bound for the last n, as its
	// complement: a model draws with one or two bounds, so the division
	// that computes it runs per distinct n, not per copy. A Fate that has
	// cached nothing accepts every draw, so Int63n(0) on it divides by
	// zero rather than drawing forever.
	n      int64
	notMax uint64
	// norm is NormFloat64's delegate, built on first use.
	norm *rand.Rand
}

// seed points the stream at copy (key, to), at its first draw.
func (f *Fate) seed(key uint64, to int) {
	f.key, f.to = key, to
	f.src.state = fateSeed(key, to)
}

func (f *Fate) int63() int64 { return int64(f.src.Uint64() >> 1) }

// Int63n returns a value in [0, n), as (*rand.Rand).Int63n does over the
// same source. It panics if n <= 0.
//
// It is small enough to inline, so a caller holding the Fate in a local
// variable — the fan-out scan — draws with the stream in registers. A
// power of two needs no path of its own: its bound rejects nothing, and
// v % n is v & (n-1).
func (f *Fate) Int63n(n int64) int64 {
	if n != f.n {
		f.setBound(n)
	}
	for {
		if v := f.src.Uint64() >> 1; v <= ^f.notMax {
			return int64(v) % n
		}
	}
}

// setBound caches Int63n's rejection bound for n: the largest draw whose
// residue mod n is unbiased.
func (f *Fate) setBound(n int64) {
	if n <= 0 {
		panic("sim: invalid argument to Fate.Int63n")
	}
	f.n, f.notMax = n, ^uint64((1<<63)-1-(1<<63)%uint64(n))
}

// Float64 returns a value in [0, 1), as (*rand.Rand).Float64 does over the
// same source: a draw that rounds up to 1 is drawn again.
func (f *Fate) Float64() float64 {
	for {
		if x := float64(f.int63()) / (1 << 63); x < 1 {
			return x
		}
	}
}

// NormFloat64 returns a standard normal value: (*rand.Rand).NormFloat64
// drawing from this stream.
func (f *Fate) NormFloat64() float64 { return f.rand().NormFloat64() }

// rand returns a rand.Rand that draws from this Fate's state.
func (f *Fate) rand() *rand.Rand {
	if f.norm == nil {
		f.norm = rand.New(fateSource{&f.src})
	}
	return f.norm
}

// fanSource is the splitmix64 generator behind every copy's stream.
type fanSource struct{ state uint64 }

func (s *fanSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := (s.state ^ s.state>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// fateSource is a fanSource as a rand.Source64, for the draws Fate leaves
// to math/rand (NormFloat64): they read the copy's stream, not a second
// one.
type fateSource struct{ s *fanSource }

func (s fateSource) Uint64() uint64 { return s.s.Uint64() }
func (s fateSource) Int63() int64   { return int64(s.s.Uint64() >> 1) }
func (s fateSource) Seed(int64)     { panic("sim: a fate stream is seeded by its copy, not by Seed") }

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
