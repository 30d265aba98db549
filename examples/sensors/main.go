// Sensors: consensus in a sensor network with colliding random identifiers
// and massive failures.
//
// The paper's introduction motivates homonymy with sensor networks: motes
// cannot be guaranteed unique identifiers — they draw random ones, and
// collisions happen. This example deploys 12 motes whose 8-bit-ish random
// identifiers collide, then crashes seven of them (a majority!). The
// Figure 9 algorithm (HAS[HΩ, HΣ]) still reaches agreement on a reading,
// because it tolerates any number of crashes — Fig. 8 would be helpless
// here.
//
//	go run ./examples/sensors
package main

import (
	"fmt"
	"log"
	"math/rand"

	hds "repro"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	n := 12
	ids := hds.RandomIDs(n, 16, rng) // 12 motes, identifier space of 16
	fmt.Printf("mote identifiers (%d distinct among %d motes):\n  %v\n",
		ids.DistinctCount(), n, ids)

	// Each mote proposes its temperature reading; 7 of 12 die.
	proposals := make([]hds.Value, n)
	for i := range proposals {
		proposals[i] = hds.Value(fmt.Sprintf("%2.1f°C", 19.0+rng.Float64()*4))
	}
	crashes := map[hds.PID]hds.Time{0: 15, 2: 30, 4: 45, 6: 60, 8: 75, 9: 90, 11: 105}

	res, err := hds.RunFig9(hds.Fig9Experiment{
		IDs:       ids,
		Crashes:   crashes,
		Proposals: proposals,
		Stabilize: 150, // detectors settle after the die-off
		Seed:      7,
	})
	if err != nil {
		log.Fatalf("consensus failed verification: %v", err)
	}
	fmt.Printf("\n%d of %d motes crashed — far beyond a majority.\n", len(crashes), n)
	fmt.Println("consensus reached ✔ (Figure 9: any number of crashes)")
	fmt.Printf("  agreed reading:    %s\n", res.Report.Value)
	fmt.Printf("  deciders:          %d of %d (motes that decided before dying count too)\n", res.Report.Deciders, n)
	fmt.Printf("  rounds needed:     %d\n", res.Report.MaxRound)
	fmt.Printf("  broadcasts:        %d\n", res.Stats.Broadcasts)
}
