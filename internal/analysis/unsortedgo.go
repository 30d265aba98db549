package analysis

// Unsortedgo flags go statements in deterministic packages. Goroutine
// interleaving is scheduler-chosen, so any result that depends on it
// breaks byte-identical replay. The one audited exception is
// internal/sweep's worker pool, whose aggregation is proven
// order-independent (results slot by input index, serial-vs-parallel
// equality is pinned by tests), so the whole sweep package is exempt.
// Concurrency *tests* elsewhere (stress tests, race-detector fodder) are
// legitimate but must carry a //detlint:ignore with a reason, keeping
// every concurrent entry point in a deterministic package enumerable.
var Unsortedgo = leaf("unsortedgo", "flags go statements in deterministic packages outside internal/sweep's audited pool")
