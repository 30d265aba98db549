/*
Command tracediff compares two recorded traces and localizes their first
divergence — the determinism debugging primitive: two runs of the same
scenario must produce byte-identical traces, so when a regression breaks
that contract, the question is never "are they different?" but "which
event diverged first?".

	tracediff <trace-a> <trace-b>

Both arguments are trace files written by hdsim's -trace flag (either
format version; -trace-format binary). The comparison happens in two
parts:

Scenario fingerprints. v2 traces embed the flag-level scenario metadata;
tracediff prints whether the fingerprints agree. Traces of different
scenarios are expected to diverge — the interesting case is two runs of
the same fingerprint that differ anyway.

Events. With two finalized v2 traces whose frames align (same spill
stride), the footer index makes the search logarithmic: each frame
record carries the cumulative digest of every body byte before it, so a
binary search over frame boundaries pins the divergent frame and only
that frame pair is decoded — a multi-gigabyte trace pair diffs by
reading two index sections and one frame from each file. Unfinalized
traces (a run that died before its trailer) and mismatched strides fall
back to a linear lockstep scan of both bodies in constant
memory.

The first divergent event is reported with its global ordinal and both
renderings:

	meta: identical — {"algo":"ohp","n":5,"l":2,...,"seed":1}
	events: first divergence at event 100 (frame 0)
	  a: t=55 p2 deliver ALIVE g001|g002
	  b: t=55 p2 deliver ALIVE g001|g002 [skew]

Exit status: 0 when the traces are identical (fingerprint and events),
1 on any divergence, 2 on usage or I/O errors.
*/
package main
