// Package sim is the deterministic half of the detflow fixture tree.
// The two laundering shapes the tentpole requires are here: a helper in
// the same deterministic package (taint surfaces at the helper's own
// boundary call) and a helper in an exempt package (taint surfaces at
// the deterministic-side call with the full chain).
package sim

import "detflow/cliutil"

// helper launders the exempt call one frame inside the deterministic
// package; the frontier diagnostic lands here, at the boundary.
func helper() int64 {
	return cliutil.LeakyNow() // want `call to cliutil.LeakyNow reaches wallclock nondeterminism: sim.helper -> cliutil.LeakyNow -> time.Now`
}

// Use reaches the wall clock only through helper: no diagnostic here
// (frontier reporting), but the certified-API report marks it TAINTED.
func Use() int64 {
	return helper()
}

// TwoFrames launders through two exempt-package frames: the diagnostic
// lands at the deterministic-side call site with the full chain.
func TwoFrames() int64 {
	return cliutil.Chain() // want `call to cliutil.Chain reaches wallclock nondeterminism: sim.TwoFrames -> cliutil.Chain -> cliutil.LeakyNow -> time.Now`
}

// Vetted calls a callee whose only source is leaf-suppressed: the
// report shows "suppressed", and no diagnostic fires.
func Vetted() int64 {
	return cliutil.VettedNow()
}

// Accepted vets the boundary call itself: live taint degrades to a
// suppressed synthetic instance at this call site.
func Accepted() int64 {
	//detlint:ignore detflow fixture: operator-facing timing note, excluded from canonical bytes
	return cliutil.LeakyNow()
}

// Clock is dispatched dynamically; the only same-name-and-arity
// candidate in the deterministic set is (*VirtualClock).Tick, which is
// clean, so Drive stays clean.
type Clock interface {
	Tick() int64
}

// VirtualClock advances only when told to: deterministic.
type VirtualClock struct {
	t int64
}

// Tick is the deterministic Clock implementation.
func (c *VirtualClock) Tick() int64 {
	c.t++
	return c.t
}

// Drive exercises the interface-call over-approximation.
func Drive(c Clock) int64 {
	return c.Tick()
}

// double is address-taken below, making it a func-value candidate.
func double(x int64) int64 {
	return 2 * x
}

// Registered hands double out as a value.
func Registered() func(int64) int64 {
	return double
}

// Apply exercises the func-value over-approximation: the only
// address-taken deterministic candidate of this arity is double.
func Apply(f func(int64) int64) int64 {
	return f(7)
}

// counter is unexported, so its exported methods reach the API only
// promoted through Meter: the report lists them under Meter, each with the
// status of counter's declaration.
type counter struct {
	n int64
}

// Inc is clean.
func (c *counter) Inc() int64 {
	c.n++
	return c.n
}

// Stamp reaches the wall clock through helper.
func (c *counter) Stamp() int64 {
	return helper()
}

// Meter promotes Inc and Stamp from its unexported embedded counter, and
// Tick from the exported VirtualClock.
type Meter struct {
	counter
	*VirtualClock
}

// seed launders crypto/rand's Reader var through an exempt-package
// helper. It is unexported, so the certified-API report does not list it.
func seed(buf []byte) {
	cliutil.Entropy(buf) // want `call to cliutil.Entropy reaches globalrand nondeterminism: sim.seed -> cliutil.Entropy -> crypto/rand.Reader`
}
