package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refSource is the engine's fate source as it was before Fate: a
// splitmix64 rand.Source64, reseeded in place before every copy.
type refSource struct{ state uint64 }

func (s *refSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (s *refSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *refSource) Seed(seed int64) { s.state = uint64(seed) }

// fateRef is the stream of f's copy as the engine drew it before Fate: a
// *rand.Rand over refSource, seeded for copy (f.key, f.to).
func fateRef(f *Fate) *rand.Rand { return rand.New(&refSource{state: fateSeed(f.key, f.to)}) }

// testFate returns a stream for sampling a model outside an engine.
func testFate(seed int64) *Fate {
	f := &Fate{}
	f.seed(uint64(seed), 0)
	return f
}

// refDelay is every model's Delay (LinkDelay when link) as it was written
// against *rand.Rand, kept as the oracle the models' Fate bodies are held
// to: the same draws, in the same order, with the same answers.
func refDelay(m Model, t Time, from, to PID, link bool, r *rand.Rand) (Time, bool) {
	switch m := m.(type) {
	case Async:
		lo, hi := m.MinDelay, m.MaxDelay
		if lo < 1 {
			lo = 1
		}
		if hi < lo {
			hi = lo
		}
		return lo + Time(r.Int63n(int64(hi-lo+1))), true
	case PartialSync:
		delta := m.Delta
		if delta < 1 {
			delta = 5
		}
		if t >= m.GST {
			return 1 + Time(r.Int63n(int64(delta))), true
		}
		if m.PreLoss > 0 && r.Float64() < m.PreLoss {
			return 0, false
		}
		preMax := m.PreMax
		if preMax < 1 {
			preMax = 4 * delta
		}
		return 1 + Time(r.Int63n(int64(preMax))), true
	case Timely:
		if m.Delta < 1 {
			return 1, true
		}
		return m.Delta, true
	case Pareto:
		scale, alpha, cap := m.params()
		u := 1 - r.Float64()
		d := Time(float64(scale) * math.Pow(u, -1/alpha))
		if d < scale {
			d = scale
		}
		if d > cap {
			d = cap
		}
		return d, true
	case LogNormal:
		median, sigma, cap := m.params()
		d := Time(math.Round(float64(median) * math.Exp(sigma*r.NormFloat64())))
		if d < 1 {
			d = 1
		}
		if d > cap {
			d = cap
		}
		return d, true
	case Alternating:
		period, good, bad := m.params()
		inBad := (t/period)%2 == 1
		if m.CalmAfter > 0 && t >= m.CalmAfter {
			inBad = false
		}
		if !inBad {
			return 1 + Time(r.Int63n(int64(good))), true
		}
		if m.BadLoss > 0 && r.Float64() < m.BadLoss {
			return 0, false
		}
		return 1 + Time(r.Int63n(int64(bad))), true
	case AsymmetricLinks:
		d, ok := refDelay(m.base(), t, from, to, false, r)
		if !ok {
			return 0, false
		}
		if link {
			return d + m.Skew(from, to), true
		}
		return d + m.maxSkew()/2, true
	case Lossy:
		if p := m.p(); p > 0 && r.Float64() < p {
			return 0, false
		}
		_, isLink := m.base().(LinkModel)
		return refDelay(m.base(), t, from, to, link && isLink, r)
	case Partition:
		if !link {
			return refDelay(m.base(), t, from, to, false, r)
		}
		if m.severed(t, from, to) {
			return 0, false
		}
		_, isLink := m.base().(LinkModel)
		return refDelay(m.base(), t, from, to, isLink, r)
	}
	panic("refDelay: no reference for " + m.String())
}

// fateModels is every model of model.go, models.go and partition.go, in
// the parameterizations that reach each of their branches: both GST sides
// with and without pre-GST loss, both windows of Alternating, and the
// wrappers over link-blind and per-link bases.
var fateModels = []Model{
	Async{},
	Async{MinDelay: 3, MaxDelay: 17},
	Async{MaxDelay: 8}, // a power-of-two range
	PartialSync{GST: 200, Delta: 4, PreLoss: 0.3, PreMax: 30},
	PartialSync{GST: 100},
	Timely{Delta: 7},
	Pareto{},
	Pareto{Scale: 2, Alpha: 0.5, Cap: 400},
	LogNormal{},
	LogNormal{Median: 30, Sigma: 1.5, Cap: 6000},
	Alternating{Period: 15, GoodDelta: 3, BadMax: 20, BadLoss: 0.25, CalmAfter: 300},
	Alternating{},
	AsymmetricLinks{},
	AsymmetricLinks{Base: LogNormal{Median: 4}, MaxSkew: 6},
	Lossy{P: 0.3, Base: Async{MaxDelay: 6}},
	Lossy{P: 0.2, Base: AsymmetricLinks{Base: Pareto{}}},
	Partition{Base: Async{MaxDelay: 8}, Windows: []PartitionWindow{{From: 50, To: 250, Cut: 40}}},
	Partition{Base: Lossy{P: 0.1, Base: AsymmetricLinks{}}, Windows: []PartitionWindow{{From: 0, To: 100, Cut: 10}, {From: 200, To: 300, Cut: 70}}},
}

// TestFateMatchesRef holds every model's Fate body to its *rand.Rand
// body (refDelay over fateRef) on 100,000 (key, recipient) pairs each,
// through Delay and, for per-link models, LinkDelay: the same delay and
// loss, and the stream left at the same position. One Fate serves every
// model, reseeded per copy as the engine's is, so Int63n's cached bound
// changes hands between models as it does in a run.
func TestFateMatchesRef(t *testing.T) {
	pairs := 100_000
	if testing.Short() {
		pairs = 10_000
	}
	rng := rand.New(rand.NewSource(38))
	f := &Fate{}
	for _, m := range fateModels {
		lm, perLink := m.(LinkModel)
		for i := 0; i < pairs; i++ {
			key, to := rng.Uint64(), rng.Intn(100)
			from, sent := PID(rng.Intn(100)), Time(rng.Intn(400))
			for _, link := range []bool{false, true} {
				if link && !perLink {
					continue
				}
				f.seed(key, to)
				r := fateRef(f)
				var d Time
				var ok bool
				if link {
					d, ok = lm.LinkDelay(sent, from, PID(to), f)
				} else {
					d, ok = m.Delay(sent, f)
				}
				wantD, wantOK := refDelay(m, sent, from, PID(to), link, r)
				if d != wantD || ok != wantOK {
					t.Fatalf("%s link=%v key=%#x to=%d t=%d: (%d, %v), fateRef gives (%d, %v)", m, link, key, to, sent, d, ok, wantD, wantOK)
				}
				if got, want := f.src.Uint64(), r.Uint64(); got != want {
					t.Fatalf("%s link=%v key=%#x to=%d t=%d: stream left at %#x, fateRef at %#x", m, link, key, to, sent, got, want)
				}
			}
		}
	}
}

// TestFateDrawsMatchRand holds each draw to (*rand.Rand)'s over the same
// state, value by value, for bounds that take Int63n's mask branch, its
// rejection loop often (n just above 2^62) and never, interleaved so the
// cached bound keeps changing.
func TestFateDrawsMatchRand(t *testing.T) {
	bounds := []int64{1, 2, 3, 5, 7, 8, 10, 255, 1000, 1 << 40, 1<<62 + 1, 3 << 61, math.MaxInt64}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20_000; i++ {
		f := &Fate{}
		f.seed(rng.Uint64(), rng.Intn(1<<20))
		r := fateRef(f)
		for j := 0; j < 8; j++ {
			switch n := bounds[rng.Intn(len(bounds))]; rng.Intn(4) {
			case 0:
				if got, want := f.Float64(), r.Float64(); got != want {
					t.Fatalf("Float64 = %v, rand gives %v", got, want)
				}
			case 1:
				if got, want := f.NormFloat64(), r.NormFloat64(); got != want {
					t.Fatalf("NormFloat64 = %v, rand gives %v", got, want)
				}
			default:
				if got, want := f.Int63n(n), r.Int63n(n); got != want {
					t.Fatalf("Int63n(%d) = %d, rand gives %d", n, got, want)
				}
			}
		}
		if got, want := f.src.Uint64(), r.Uint64(); got != want {
			t.Fatalf("stream left at %#x, rand at %#x", got, want)
		}
	}
}

// TestFateFloat64Resamples plants a state whose next draw is
// 2^63-1, which divides to exactly 1.0: Float64 must draw again, as
// (*rand.Rand).Float64 does, and leave the stream where it leaves it.
func TestFateFloat64Resamples(t *testing.T) {
	f := &Fate{}
	f.src.state = unmix(math.MaxUint64) - 0x9E3779B97F4A7C15
	if got := f.int63(); float64(got)/(1<<63) != 1 {
		t.Fatalf("planted draw %#x does not divide to 1", got)
	}
	f.src.state = unmix(math.MaxUint64) - 0x9E3779B97F4A7C15
	r := rand.New(&refSource{state: f.src.state})
	got, want := f.Float64(), r.Float64()
	if got != want || got >= 1 {
		t.Fatalf("Float64 = %v, rand gives %v", got, want)
	}
	if got, want := f.src.Uint64(), r.Uint64(); got != want {
		t.Fatalf("stream left at %#x, rand at %#x", got, want)
	}
}

// unmix inverts splitmix64's output finalizer: the state increment whose
// finalized value is z.
func unmix(z uint64) uint64 {
	z = unshift(z, 31)
	z *= inverse(0x94D049BB133111EB)
	z = unshift(z, 27)
	z *= inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}

// unshift inverts x ^= x >> k.
func unshift(z uint64, k uint) uint64 {
	x := z
	for i := uint(0); i < 64; i += k {
		x = z ^ x>>k
	}
	return x
}

// inverse returns the multiplicative inverse of odd m modulo 2^64.
func inverse(m uint64) uint64 {
	x := m
	for i := 0; i < 6; i++ {
		x *= 2 - m*x
	}
	return x
}
