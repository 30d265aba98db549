package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestLastDecision(t *testing.T) {
	got, err := lastDecision(`PASS rounds=1 deciders=6 span=13..14 value="v0" bcast=34 deliv=167 drop=7`)
	if err != nil || got != 14 {
		t.Errorf("lastDecision = %d, %v", got, err)
	}
	for _, bad := range []string{"", "PASS trusted=200 leader=200", "PASS span=13-14"} {
		if _, err := lastDecision(bad); err == nil {
			t.Errorf("lastDecision(%q) parsed", bad)
		}
	}
}

// TestScenarioFilesAdmissible keeps bench/scenarios loadable: a file the
// runners reject would fail its probe only at benchmark time.
func TestScenarioFilesAdmissible(t *testing.T) {
	c := &ctx{root: filepath.Join("..", "..")}
	files, err := os.ReadDir(filepath.Join(c.root, "bench", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no scenario files")
	}
	for _, f := range files {
		if _, err := c.loadScenario(f.Name()); err != nil {
			t.Error(err)
		}
	}
}

func TestBestKeepsTheFastest(t *testing.T) {
	runs := []time.Duration{30, 10, 20}
	i := 0
	got, err := best(len(runs), func() (time.Duration, error) { i++; return runs[i-1], nil })
	if err != nil || got != 10 || i != 3 {
		t.Errorf("best = %d after %d runs, %v", got, i, err)
	}
}
