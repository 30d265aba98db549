package hunt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Entry is one checked-in regression scenario: a minimized Scenario plus
// the verdict line it must reproduce byte-for-byte. Entries are written
// by cmd/hunt (or by hand during triage) and replayed by the corpus
// regression test on every CI run — a pinned PASS guards against
// behavioural drift, a pinned FAIL would keep a known-bad scenario
// visibly red until fixed.
//
// The package deliberately has no "load the corpus directory" helper:
// hunt is in the deterministic set, where directory enumeration is
// banned, so cmd/hunt and the _test.go files own the file I/O and hand
// entries in as bytes.
type Entry struct {
	Name string `json:"name"`
	// Note says why the scenario is worth keeping — the failure it once
	// witnessed or the structure it targets.
	Note     string   `json:"note"`
	Scenario Scenario `json:"scenario"`
	// Want is the pinned verdict line (Outcome.Verdict).
	Want string `json:"want"`
}

// DecodeEntry parses one corpus file's bytes, rejecting unknown fields so
// typos in hand-edited entries fail loudly. Errors name the entry when the
// bytes carry its name; the caller names the file.
func DecodeEntry(b []byte) (Entry, error) {
	var e Entry
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&e)
	if err == nil && dec.InputOffset() < int64(len(bytes.TrimRight(b, " \t\r\n"))) {
		err = errors.New("data after the entry's closing brace")
	}
	if err != nil {
		if e.Name != "" {
			return Entry{}, fmt.Errorf("hunt: corpus entry %s: %w", e.Name, err)
		}
		return Entry{}, fmt.Errorf("hunt: corpus entry: %w", err)
	}
	if e.Name == "" {
		return Entry{}, fmt.Errorf("hunt: corpus entry has no name")
	}
	if err := e.Scenario.Validate(); err != nil {
		return Entry{}, fmt.Errorf("hunt: corpus entry %s: %w", e.Name, err)
	}
	return e, nil
}

// EncodeEntry renders an entry in the corpus's canonical on-disk form
// (indented JSON, trailing newline).
func EncodeEntry(e Entry) ([]byte, error) {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("hunt: corpus entry %s: %w", e.Name, err)
	}
	return append(b, '\n'), nil
}

// Replay re-runs the entry's scenario and compares the verdict to the
// pinned one, byte for byte. A mismatch means the behaviour of
// (Scenario, seed) changed — deliberately (re-pin with cmd/hunt -pin) or
// as a regression (fix the code).
func Replay(e Entry) error {
	got := e.Scenario.Run().Verdict
	if got != e.Want {
		return fmt.Errorf("hunt: corpus %s: verdict drifted\n  want: %s\n  got:  %s", e.Name, e.Want, got)
	}
	return nil
}
