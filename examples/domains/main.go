// Domains: privacy-preserving consensus where users identify only by
// their domain.
//
// The paper cites the setting of "Byzantine agreement with homonyms"
// (Delporte-Gallet et al.): users keep their privacy by using their
// *domain* as their identifier, so every user of one domain is homonymous
// with the others. Here three organizations of different sizes run the
// Figure 8 consensus to agree on a common configuration value, with one
// organization suffering a partial outage. The leader is not a process
// but a *domain*: HΩ elects an identifier together with the number of
// correct processes carrying it, and the Leaders' Coordination Phase makes
// that whole domain speak with one voice.
//
//	go run ./examples/domains
package main

import (
	"fmt"
	"log"

	hds "repro"
)

func main() {
	ids := hds.DomainIDs(map[string]int{
		"alpha.example": 3, // indexes 0..2
		"beta.example":  2, // indexes 3..4
		"gamma.example": 2, // indexes 5..6
	})
	n := ids.N()
	fmt.Printf("%d users across %d domains: %v\n", n, ids.DistinctCount(), ids)

	proposals := make([]hds.Value, n)
	for i := range proposals {
		proposals[i] = hds.Value(fmt.Sprintf("config-rev-%d", 40+i))
	}
	// Two alpha.example users go down: the domain keeps operating with
	// its remaining member, and HΩ's multiplicity shrinks accordingly.
	crashes := map[hds.PID]hds.Time{0: 25, 1: 55}

	res, err := hds.RunFig8(hds.Fig8Experiment{
		IDs:       ids,
		T:         3, // n=7, t<n/2
		Crashes:   crashes,
		Proposals: proposals,
		Stabilize: 90,
		Seed:      3,
	})
	if err != nil {
		log.Fatalf("consensus failed verification: %v", err)
	}
	fmt.Println("consensus reached ✔ despite the alpha.example outage")
	fmt.Printf("  agreed config:     %s\n", res.Report.Value)
	fmt.Printf("  deciders:          %d of %d users\n", res.Report.Deciders, n)
	fmt.Printf("  rounds needed:     %d\n", res.Report.MaxRound)
	fmt.Printf("  COORD traffic:     %d broadcasts (the homonymous leaders' coordination)\n",
		res.Stats.ByTag["COORD"])
}
