// Partialsync: the paper's end-to-end partial-synchrony result, live.
//
// This example runs on the goroutine runtime (real concurrency, real
// clocks, real timeouts), not the simulator: every process is a goroutine,
// the network delivers each broadcast copy after a random real delay, and
// before GST (here 80ms) deliveries are arbitrarily slow. Each process
// stacks the Figure 6 detector (◇HP̄ → HΩ, adaptive timeouts) under the
// Figure 8 consensus — the same ohp.Detector and core.Fig8 the simulator
// runs — the combination the paper highlights: consensus in a homonymous
// partially synchronous system with a majority of correct processes and
// no initial membership knowledge.
//
//	go run ./examples/partialsync
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/fd/ohp"
	"repro/internal/hruntime"
	"repro/internal/ident"
	"repro/internal/sim"
)

func main() {
	ids := ident.Assignment{"ant", "ant", "bee", "bee", "cat"}
	n := ids.N()
	const tFaults = 2

	cluster := hruntime.NewCluster(ids, hruntime.Options{
		Seed:     42,
		MinDelay: 200 * time.Microsecond,
		MaxDelay: 2 * time.Millisecond,
		GST:      80 * time.Millisecond, // links timely only after this
	})
	defer cluster.Close()

	fmt.Printf("%d goroutine-processes, ids %v, GST in 80ms…\n", n, ids)

	proposals := make([]core.Value, n)
	insts := make([]*core.Fig8, n)
	procs := make([]*hruntime.Proc, n)
	for i := range procs {
		proposals[i] = core.Value(fmt.Sprintf("proposal-of-p%d", i))
		det := ohp.New()
		insts[i] = core.NewFig8(det, tFaults, proposals[i])
		procs[i] = cluster.Start(i, sim.NewNode().Add("fd", det).Add("consensus", insts[i]))
		defer procs[i].Stop()
	}

	// Crash one "ant" after 20ms — mid pre-GST chaos. Times are in the
	// cluster's 1ms units.
	time.Sleep(20 * time.Millisecond)
	cluster.Crash(1)
	fmt.Println("crashed process 1 (an 'ant') during the unstable period")
	truth := fd.NewGroundTruth(ids, map[sim.PID]sim.Time{1: 20})

	// Each outcome is read on its process's own goroutine (Proc.Do).
	outcomes := make([]core.Outcome, n)
	deadline := time.Now().Add(30 * time.Second)
	for {
		decided := 0
		for i, p := range procs {
			p.Do(func() { outcomes[i] = insts[i].Decided() })
			if outcomes[i].Decided && truth.IsCorrect(sim.PID(i)) {
				decided++
			}
		}
		if decided == len(truth.Correct()) {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("timeout: %d/%d survivors decided", decided, len(truth.Correct()))
		}
		time.Sleep(time.Millisecond)
	}

	// The checker every simulator run is judged by: validity, agreement,
	// termination of the correct processes, relayed-round agreement.
	rep, err := check.Consensus(truth, proposals, outcomes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("consensus reached ✔ (live goroutines, partial synchrony)")
	fmt.Printf("  all %d survivors decided %q\n", len(truth.Correct()), rep.Value)
}
