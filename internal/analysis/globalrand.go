package analysis

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the shared, process-global source. The
// constructors — New, NewSource, NewZipf, NewPCG, NewChaCha8 — are
// allowed: they are exactly how seeded, injected generators get built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true, "N": true,
}

// Globalrand forbids ambient randomness in deterministic packages. The
// replay contract requires every random draw to come from an injected,
// seeded *rand.Rand (sim.Env.Rand) or from the keyed splitmix64 fate
// streams — the global math/rand source is shared process state (seeded
// randomly since Go 1.20), and crypto/rand is nondeterministic by
// design, so either one makes a verdict unreproducible from (Config,
// seed). Every reference to a crypto/rand object is a source at its use
// site, a function (crand.Read) or a var (crand.Reader) alike.
var Globalrand = leaf("globalrand", "forbids global math/rand functions and references to crypto/rand in deterministic packages")
