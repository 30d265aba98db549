// Quickstart: solve consensus among homonymous processes.
//
// Five processes share two identifiers (three "g001"s, two "g002"s); one
// crashes mid-run. The Figure 8 algorithm (HAS[t < n/2, HΩ]) decides with
// a failure detector of class HΩ — here the paper's own Figure 6 detector
// running underneath, over a partially synchronous network.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	hds "repro"
)

func main() {
	res, err := hds.RunFig8(hds.Fig8Experiment{
		IDs:       hds.BalancedIDs(5, 2),       // 5 processes, 2 identifiers
		T:         2,                           // tolerate up to 2 crashes
		Crashes:   map[hds.PID]hds.Time{3: 40}, // process 3 crashes at t=40
		Net:       hds.PartialSync{GST: 60, Delta: 3},
		Detectors: hds.MessagePassingDetectors, // Fig. 6 (◇HP̄→HΩ) underneath
		Seed:      1,
	})
	if err != nil {
		log.Fatalf("consensus failed verification: %v", err)
	}
	fmt.Println("consensus reached ✔")
	fmt.Printf("  decided value:     %q\n", res.Report.Value)
	fmt.Printf("  deciders:          %d (all correct processes)\n", res.Report.Deciders)
	fmt.Printf("  rounds needed:     %d\n", res.Report.MaxRound)
	fmt.Printf("  last decision at:  t=%d (virtual time)\n", res.Report.LastDecision)
	fmt.Printf("  broadcasts:        %d  (by type: %v)\n", res.Stats.Broadcasts, res.Stats.ByTag)
}
