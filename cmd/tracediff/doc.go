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

Events. One lockstep loop decodes both bodies in constant memory up to
the first divergent event or the shorter trace's end. With two
finalized v2 traces the footer index decides where it starts: equal
total digests and event counts mean identical without decoding a body,
and when the frames align (same spill stride) each frame record carries
the cumulative digest of every body byte before it, so a binary search
over frame boundaries picks the divergent frame and the loop starts
there — a multi-gigabyte trace pair diffs by reading two index sections
and decoding from one frame on. Unfinalized traces (a run that died
before its trailer) and mismatched strides start at the first event.
A decode error names the file it is in.

The digest verdict compares the digests the writers recorded, not the
bytes on disk: a body damaged after it was written, with its index
intact, still reads identical. hdsim -replay decodes every byte.

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
