package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// The CLIs' report lines are the benchmark's contract with the program:
// every number the end-to-end run checks or divides by is parsed from the
// child's own stdout with the patterns below.
var (
	reEvents     = regexp.MustCompile(`(?m)^  events processed: (\d+) \(stop: ([a-z-]+)\)$`)
	reDeliveries = regexp.MustCompile(`(?m)^  deliveries/drops: (\d+)/(\d+)$`)
	reQueue      = regexp.MustCompile(`(?m)^  queue high-water: (\d+) entries`)
	reRecoveries = regexp.MustCompile(`(?m)^  recoveries: +(\d+)$`)
	reTraceLine  = regexp.MustCompile(`(?m)^  trace: +\S+ \((\d+) deliveries, (\d+) drops\)$`)
	reHuntDone   = regexp.MustCompile(`(?m)^done: executed=(\d+) coverage=(\d+) findings=(\d+)$`)
	reTableHead  = regexp.MustCompile(`(?m)^### (E\d+) — `)
)

// hdsimReport is what a heartbeat run or its replay printed. The
// engine-only fields (Events, Stop, QueueHW) are set when HasEngineLines,
// the trace line's counts when HasFile; a replay has neither.
type hdsimReport struct {
	Verified                bool
	Events, QueueHW         int64
	Stop                    string
	Deliveries, Drops       int64
	Recoveries              int64
	TraceDeliv, TraceDrops  int64
	HasEngineLines, HasFile bool
}

func atoi(s string) int64 {
	v, _ := strconv.ParseInt(s, 10, 64) // the patterns admit digits only
	return v
}

func parseHdsim(out string) (hdsimReport, error) {
	var r hdsimReport
	r.Verified = strings.Contains(out, "verified ✔")
	m := reDeliveries.FindStringSubmatch(out)
	if m == nil {
		return r, fmt.Errorf("no deliveries/drops line")
	}
	r.Deliveries, r.Drops = atoi(m[1]), atoi(m[2])
	if m = reRecoveries.FindStringSubmatch(out); m == nil {
		return r, fmt.Errorf("no recoveries line")
	}
	r.Recoveries = atoi(m[1])
	if m = reEvents.FindStringSubmatch(out); m != nil {
		r.Events, r.Stop, r.HasEngineLines = atoi(m[1]), m[2], true
		q := reQueue.FindStringSubmatch(out)
		if q == nil {
			return r, fmt.Errorf("events line without a queue high-water line")
		}
		r.QueueHW = atoi(q[1])
	}
	if m = reTraceLine.FindStringSubmatch(out); m != nil {
		r.TraceDeliv, r.TraceDrops, r.HasFile = atoi(m[1]), atoi(m[2]), true
	}
	return r, nil
}

// huntReport is the campaign's closing line.
type huntReport struct {
	Executed, Coverage, Findings int64
}

func parseHunt(out string) (huntReport, error) {
	m := reHuntDone.FindStringSubmatch(out)
	if m == nil {
		return huntReport{}, fmt.Errorf("no \"done: executed=\" line")
	}
	return huntReport{atoi(m[1]), atoi(m[2]), atoi(m[3])}, nil
}

// tablesReport counts what cmd/experiments printed.
type tablesReport struct {
	IDs     []string // table ids in order of appearance
	Lines   int64    // stdout lines beginning "| ": header and data rows
	Crosses int      // "✗" cells: a reduction or property that failed to verify
}

func parseTables(out string) tablesReport {
	var r tablesReport
	for _, m := range reTableHead.FindAllStringSubmatch(out, -1) {
		r.IDs = append(r.IDs, m[1])
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "| ") {
			r.Lines++
		}
	}
	r.Crosses = strings.Count(out, "✗")
	return r
}

// Engine-only report lines, as CI strips them before diffing a live
// report against its replay: the verdict line differs by design, and the
// replay has no engine counters or trace path to print.
var (
	liveOnly   = []string{"heartbeat churn verified", "  events processed:", "  queue high-water:", "  trace:"}
	replayOnly = []string{"heartbeat churn verified"}
)

// sharedLines drops the lines starting with any of the prefixes.
func sharedLines(out string, drop []string) string {
	var keep []string
next:
	for _, line := range strings.Split(out, "\n") {
		for _, p := range drop {
			if strings.HasPrefix(line, p) {
				continue next
			}
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}
