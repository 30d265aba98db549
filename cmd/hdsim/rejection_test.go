package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hds "repro"
	"repro/internal/core"
	"repro/internal/hunt"
	"repro/internal/sim"
)

// rejection is one admissibility rule, spelled on every face that can
// state its input: the library's Experiment (Run reports hds: + body), the
// hdsim command line (hdsim: scenario: + body, before any output), the
// fdmon command line where the algorithm is ohp (fdmon: scenario: +
// body), and a hunt corpus entry's scenario (DecodeEntry rejects it). An
// empty spelling is a face that has no words for the input: hdsim has no
// proposals, hunt no detector source or beater count, and the -gst/-delta
// signs belong to the fingerprint, not to the experiment.
type rejection struct {
	name         string
	e            *hds.Experiment
	hdsim, fdmon string
	hunt         string
}

// rejections has one row per rule of hds.Experiment.Validate, in the order
// its doc lists them, and one per sign scenario.Validate adds.
func rejections() []rejection {
	ids := hds.BalancedIDs(5, 2)
	part := func(from, to hds.Time, cut hds.PID) sim.Model {
		return sim.Partition{Base: sim.Async{MaxDelay: 8}, Windows: []sim.PartitionWindow{{From: from, To: to, Cut: cut}}}
	}
	bottom := []hds.Value{"v0", "v1", core.Bottom, "v3", "v4"}
	return []rejection{
		{"unknown algorithm", &hds.Experiment{Algo: "bogus", IDs: ids},
			"-algo bogus", "", `{"kind":"bogus","n":5,"l":2,"seed":1}`},
		{"negative period", &hds.Experiment{Algo: "heartbeat", IDs: ids, Period: -5},
			"-algo heartbeat -period -5", "", `{"kind":"heartbeat","n":5,"l":2,"seed":1,"period":-5}`},
		{"negative horizon", &hds.Experiment{Algo: "ohp", IDs: ids, Horizon: -5},
			"-algo ohp -horizon -5", "-n 5 -l 2 -horizon -5", `{"kind":"ohp","n":5,"l":2,"seed":1,"horizon":-5}`},
		{"negative stabilization time", &hds.Experiment{Algo: "fig9", IDs: ids, Stabilize: -7},
			"-algo fig9 -stabilize -7", "", `{"kind":"fig9","n":5,"l":2,"seed":1,"stabilize":-7}`},
		{"negative event cap", &hds.Experiment{Algo: "fig8", IDs: ids, T: 2, MaxEvents: -3},
			"-algo fig8 -t 2 -max-events -3", "", `{"kind":"fig8","n":5,"l":2,"t":2,"seed":1,"maxEvents":-3}`},
		{"negative beater count", &hds.Experiment{Algo: "heartbeat", IDs: ids, Beaters: -3},
			"-algo heartbeat -beaters -3", "", ""},
		{"non-finite churn fraction", &hds.Experiment{Algo: "fig9", IDs: ids, Churn: hds.ChurnSpec{Fraction: math.NaN()}},
			"", "", ""},
		{"heartbeat with crashes", &hds.Experiment{Algo: "heartbeat", IDs: ids, Crashes: map[hds.PID]hds.Time{1: 5}},
			"-algo heartbeat -crashes 1:5", "", `{"kind":"heartbeat","n":5,"l":2,"seed":1,"crashes":[{"p":1,"at":5}]}`},
		{"ohp with churn and crashes", &hds.Experiment{Algo: "ohp", IDs: ids, Crashes: map[hds.PID]hds.Time{4: 5}, Churn: hds.ChurnSpec{Fraction: 0.2, Cycles: 1, Down: 40, Stagger: 7}},
			"-algo ohp -crashes 4:5 -churn 0.2:1:40", "", `{"kind":"ohp","n":5,"l":2,"seed":1,"churn":{"Fraction":0.2,"Cycles":1,"Down":40,"Stagger":7},"crashes":[{"p":4,"at":5}]}`},
		{"message-passing detectors under fig9", &hds.Experiment{Algo: "fig9", IDs: ids, Detectors: hds.MessagePassingDetectors},
			"-algo fig9 -detectors mp", "", ""},
		{"invalid assignment", &hds.Experiment{Algo: "fig9", IDs: hds.Assignment{"A", ""}},
			"", "", ""},
		{"crash outside [0, n)", &hds.Experiment{Algo: "ohp", IDs: ids, Crashes: map[hds.PID]hds.Time{9: 10}},
			"-algo ohp -crashes 9:10", "-n 5 -l 2 -crashes 9:10", `{"kind":"ohp","n":5,"l":2,"seed":1,"crashes":[{"p":9,"at":10}]}`},
		{"negative crash time", &hds.Experiment{Algo: "fig9", IDs: ids, Crashes: map[hds.PID]hds.Time{1: -3}},
			"", "", `{"kind":"fig9","n":5,"l":2,"seed":1,"crashes":[{"p":1,"at":-3}]}`},
		{"more beaters than processes", &hds.Experiment{Algo: "heartbeat", IDs: ids, Beaters: 9},
			"-algo heartbeat -beaters 9", "", ""},
		{"proposals not one per process", &hds.Experiment{Algo: "fig9", IDs: ids, Proposals: []hds.Value{"v0"}},
			"", "", ""},
		{"a ⊥ proposal", &hds.Experiment{Algo: "fig9", IDs: ids, Proposals: bottom},
			"", "", ""},
		{"fig8 t outside [0, n/2)", &hds.Experiment{Algo: "fig8", IDs: ids, T: 3},
			"-algo fig8 -t 3", "", `{"kind":"fig8","n":5,"l":2,"t":3,"seed":1}`},
		{"a process churned and crashed", &hds.Experiment{Algo: "fig9", IDs: ids, Crashes: map[hds.PID]hds.Time{2: 30}, Churn: hds.ChurnSpec{Fraction: 0.4, Stagger: 7}},
			"-algo fig9 -churn 0.4 -crashes 2:30", "", `{"kind":"fig9","n":5,"l":2,"seed":1,"churn":{"Fraction":0.4,"Stagger":7},"crashes":[{"p":2,"at":30}]}`},
		{"a fault schedule past the horizon", &hds.Experiment{Algo: "ohp", IDs: ids, Horizon: 6000, Crashes: map[hds.PID]hds.Time{1: 9000}},
			"-algo ohp -horizon 6000 -crashes 1:9000", "-n 5 -l 2 -crashes 1:9000", `{"kind":"ohp","n":5,"l":2,"seed":1,"horizon":6000,"crashes":[{"p":1,"at":9000}]}`},
		{"fig8 churn beyond the t budget", &hds.Experiment{Algo: "fig8", IDs: ids, T: 1, Churn: hds.ChurnSpec{Fraction: 0.6, Cycles: 1, Down: 60, Stagger: 7}},
			"-algo fig8 -t 1 -churn 0.6:1:60", "", `{"kind":"fig8","n":5,"l":2,"t":1,"seed":1,"churn":{"Fraction":0.6,"Cycles":1,"Down":60,"Stagger":7}}`},
		{"fig9 churn with nothing eventually up", &hds.Experiment{Algo: "fig9", IDs: ids, Churn: hds.ChurnSpec{Fraction: 1, FinalDown: true}},
			"", "", `{"kind":"fig9","n":5,"l":2,"seed":1,"churn":{"Fraction":1,"FinalDown":true}}`},
		{"a partition cut that does not split", &hds.Experiment{Algo: "fig9", IDs: ids, Net: part(0, 10, 5)},
			"-algo fig9 -partition 0-10@5", "", `{"kind":"fig9","n":5,"l":2,"seed":1,"partitions":[{"from":0,"to":10,"cut":5}]}`},
		{"a partition open at the horizon", &hds.Experiment{Algo: "fig9", IDs: ids, Horizon: 400, Net: part(0, 500, 2)},
			"-algo fig9 -horizon 400 -partition 0-500@2", "", `{"kind":"fig9","n":5,"l":2,"seed":1,"horizon":400,"partitions":[{"from":0,"to":500,"cut":2}]}`},
		{"negative gst", nil, "-algo ohp -gst -10", "-n 5 -l 2 -gst -10", ""},
		{"negative delta", nil, "-algo ohp -delta -2", "-n 5 -l 2 -delta -2", ""},
	}
}

// TestRejectionMatrix runs every row through each face that spells it and
// requires one body from all of them: Experiment.Run returns hds: + body,
// hdsim with a binary -trace prints hdsim: scenario: + body alone on
// stderr and exits 1 with no header and no trace file, and
// hunt.DecodeEntry refuses the entry with that body. The bodies, with
// every face's spelling, are pinned in testdata/golden/rejection_matrix.txt
// (-update rewrites it), where cmd/fdmon's TestRejectionMatrix reads the
// fdmon rows and runs them through its own face.
func TestRejectionMatrix(t *testing.T) {
	var matrix strings.Builder
	matrix.WriteString("# One row per admissibility rule: the body every face reports, and each\n" +
		"# face's spelling of the input (\"-\": the face has no words for it).\n" +
		"# Written by go test ./cmd/hdsim -run TestRejectionMatrix -update; the\n" +
		"# fdmon rows are run by go test ./cmd/fdmon -run TestRejectionMatrix.\n")
	for _, r := range rejections() {
		var bodies []string
		face := func(name, body string, ok bool) {
			if !ok {
				t.Errorf("%s: %s face: %s", r.name, name, body)
				return
			}
			bodies = append(bodies, body)
		}
		if r.e != nil {
			_, err := r.e.Run(1, nil)
			body, ok := strings.CutPrefix(fmt.Sprint(err), "hds: ")
			face("Experiment.Run", body, ok)
		}
		if r.hdsim != "" {
			path := filepath.Join(t.TempDir(), "x.bin")
			var stdout, stderr bytes.Buffer
			code := run(append(strings.Fields(r.hdsim), "-trace", path, "-trace-format", "binary"), &stdout, &stderr)
			body, ok := strings.CutPrefix(stderr.String(), "hdsim: scenario: ")
			body, nl := strings.CutSuffix(body, "\n")
			_, statErr := os.Stat(path)
			switch {
			case code != 1 || stdout.Len() != 0:
				face("hdsim", fmt.Sprintf("exit %d, stdout %q", code, stdout.String()), false)
			case !os.IsNotExist(statErr):
				face("hdsim", "left "+path+" behind", false)
			default:
				face("hdsim", body, ok && nl && !strings.Contains(body, "\n"))
			}
		}
		if r.hunt != "" {
			entry := fmt.Sprintf(`{"name":"row","scenario":%s,"want":"PASS"}`, r.hunt)
			_, err := hunt.DecodeEntry([]byte(entry))
			body, ok := strings.CutPrefix(fmt.Sprint(err), "hunt: corpus entry row: hunt: scenario: ")
			face("hunt.DecodeEntry", body, ok)
		}
		for _, b := range bodies[min(1, len(bodies)):] {
			if b != bodies[0] {
				t.Errorf("%s: faces disagree: %q and %q", r.name, bodies[0], b)
			}
		}
		if len(bodies) == 0 {
			continue
		}
		spell := func(s string) string {
			if s == "" {
				return "-"
			}
			return s
		}
		lib := "-"
		if r.e != nil {
			lib = "Experiment.Run"
		}
		fmt.Fprintf(&matrix, "\nrow:   %s\nbody:  %s\nhds:   %s\nhdsim: %s\nfdmon: %s\nhunt:  %s\n",
			r.name, bodies[0], lib, spell(r.hdsim), spell(r.fdmon), spell(r.hunt))
	}
	checkGolden(t, "rejection_matrix", matrix.String())
}
