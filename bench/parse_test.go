package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

func fixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestParseHdsimLive(t *testing.T) {
	got, err := parseHdsim(fixture(t, "hdsim_live.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := hdsimReport{
		Verified: true, Events: 20089, QueueHW: 70, Stop: "horizon",
		Deliveries: 19849, Drops: 151, Recoveries: 25,
		TraceDeliv: 19849, TraceDrops: 151, HasEngineLines: true, HasFile: true,
	}
	if got != want {
		t.Errorf("got  %+v\nwant %+v", got, want)
	}
}

func TestParseHdsimReplay(t *testing.T) {
	got, err := parseHdsim(fixture(t, "hdsim_replay.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := hdsimReport{
		Verified:   true,
		Deliveries: 19849, Drops: 151, Recoveries: 25,
	}
	if got != want {
		t.Errorf("got  %+v\nwant %+v", got, want)
	}
}

func TestParseHdsimRejects(t *testing.T) {
	live := fixture(t, "hdsim_live.txt")
	for name, out := range map[string]string{
		"empty":         "",
		"no deliveries": strings.Replace(live, "  deliveries/drops:", "  deliveries:", 1),
		"no recoveries": strings.Replace(live, "  recoveries:", "  recovered:", 1),
		"no queue line": strings.Replace(live, "  queue high-water:", "  queue:", 1),
	} {
		if _, err := parseHdsim(out); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	failed := strings.Replace(live, "verified ✔", "verification failed", 1)
	if r, err := parseHdsim(failed); err != nil || r.Verified {
		t.Errorf("missing verdict: %+v, %v", r, err)
	}
}

// TestSharedLines is CI's live≡replay rule: strip the engine-only lines
// from each side and the rest must be byte-identical.
func TestSharedLines(t *testing.T) {
	live, replay := fixture(t, "hdsim_live.txt"), fixture(t, "hdsim_replay.txt")
	if a, b := sharedLines(live, liveOnly), sharedLines(replay, replayOnly); a != b {
		t.Errorf("shared lines differ:\nlive:\n%s\nreplay:\n%s", a, b)
	}
	drifted := strings.Replace(replay, "recoveries:       25", "recoveries:       24", 1)
	if sharedLines(live, liveOnly) == sharedLines(drifted, replayOnly) {
		t.Error("a replay that counts differently compares equal")
	}
}

func TestParseHunt(t *testing.T) {
	got, err := parseHunt(fixture(t, "hunt.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (huntReport{Executed: 17, Coverage: 17, Findings: 0}); got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if _, err := parseHunt("hunt: seeds=17 budget=5 batch=16 master=1\n"); err == nil {
		t.Error("a campaign log without its closing line parsed")
	}
}

func TestParseTables(t *testing.T) {
	out := fixture(t, "tables.md")
	got := parseTables(out)
	if !reflect.DeepEqual(got.IDs, []string{"E8", "E9"}) || got.Lines != 15 || got.Crosses != 0 {
		t.Errorf("got %+v", got)
	}
	if got := parseTables(strings.Replace(out, "| 5 | 5 |", "| ✗ | 5 |", 1)); got.Crosses != 1 {
		t.Errorf("a ✗ cell was not counted: %+v", got)
	}
}

func TestChecks(t *testing.T) {
	e := &env{prof: quickProfile, seed: 1}
	live, replay := fixture(t, "hdsim_live.txt"), fixture(t, "hdsim_replay.txt")

	if units, err := checkLive(e, live); err != nil || units != 20089 {
		t.Errorf("checkLive = %d, %v", units, err)
	}
	for name, out := range map[string]string{
		"unverified":      strings.Replace(live, "verified ✔", "verification failed", 1),
		"stopped early":   strings.Replace(live, "(stop: horizon)", "(stop: max-events)", 1),
		"eager fan-out":   strings.Replace(live, "queue high-water: 70 ", "queue high-water: 10000 ", 1),
		"trace disagrees": strings.Replace(live, "(19849 deliveries", "(19848 deliveries", 1),
	} {
		if _, err := checkLive(e, out); err == nil {
			t.Errorf("checkLive accepted a run that %s", name)
		}
	}

	if units, err := checkReplay(e, replay, live); err != nil || units != 20000 {
		t.Errorf("checkReplay = %d, %v", units, err)
	}
	if _, err := checkReplay(e, live, live); err == nil {
		t.Error("checkReplay accepted a report with engine lines")
	}
	if _, err := checkReplay(e, strings.Replace(replay, "19849/151", "19850/150", 1), live); err == nil {
		t.Error("checkReplay accepted counts that differ from the live run's")
	}

	if units, err := checkHunt(e, fixture(t, "hunt.txt")); err != nil || units != 17 {
		t.Errorf("checkHunt = %d, %v", units, err)
	}
	if _, err := checkHunt(e, "done: executed=17 coverage=17 findings=1\n"); err == nil {
		t.Error("checkHunt accepted a finding")
	}

	e.prof.tableIDs = []string{"E8", "E9"}
	if units, err := checkTables(e, fixture(t, "tables.md")); err != nil || units != 15 {
		t.Errorf("checkTables = %d, %v", units, err)
	}
	e.prof.tableIDs = []string{"E8", "E9", "E10"}
	if _, err := checkTables(e, fixture(t, "tables.md")); err == nil {
		t.Error("checkTables accepted a missing table")
	}

	// The seed-1 expectations bind only at their own seed.
	x := &expectations{Seed: 1}
	x.Live20k.Events, x.Live20k.Deliveries, x.Live20k.Drops, x.Live20k.Recoveries = 20089, 19849, 151, 26
	e.expect = x
	if _, err := checkLive(e, live); err == nil {
		t.Error("checkLive accepted a recovery count that expect.json contradicts")
	}
	e.seed = 2
	if _, err := checkLive(e, live); err != nil {
		t.Errorf("expectations applied at another seed: %v", err)
	}
}
