package analysis

import "go/types"

// wallClockFuncs are the package time entry points that read or wait on
// the wall clock. Duration arithmetic (time.Duration, time.Millisecond,
// …) is untouched: constants are deterministic, clocks are not.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Wallclock forbids wall-clock reads in deterministic packages. Every
// run must be a pure function of (Config, seed); virtual time lives in
// sim.Time and advances only through the event queue, so a time.Now or a
// timer in sim/core/fd/… injects the host scheduler into "canonical"
// output. internal/hruntime (the real-clock goroutine runtime) is not a
// deterministic package, and _test.go files are allowlisted: test
// deadlines and timeouts legitimately watch the wall clock.
var Wallclock = leaf("wallclock", "forbids time.Now/Since/Sleep/After/… in deterministic packages (tests allowlisted)")

// isPkgFunc reports whether obj is a package-level function of the given
// package path.
func isPkgFunc(obj types.Object, pkgPath string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
