package core

// wedgeCanary reintroduces the PR-5 leader-group wedge when a build sets
// it to "wedge" via the linker:
//
//	go run -ldflags "-X repro/internal/core.wedgeCanary=wedge" ./cmd/hunt ...
//
// With the canary armed, the round skeleton's resync exchange is off for
// every variant (skeleton.resyncing is false: no maybeResync fast-forward,
// no Fig9.followAck), so a jumping leader never makes the COORD/Phase-0
// push it owes the round it should land in and churn that takes out a
// whole leader group wedges the everyone-quorums again — the exact bug
// class the scenario hunter's CI canary must find and shrink. Normal
// builds leave the variable empty and the guard is always true; no code
// path in this repository assigns it.
var wedgeCanary string
