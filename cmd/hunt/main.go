// Command hunt is the scenario fuzzer's CLI: coverage-guided campaigns
// over the repository's verified runners, deterministic find/shrink logs,
// and corpus maintenance (replay, pin, export).
//
// Modes:
//
//	hunt -budget 200 -seed 1 [-out dir]    fuzz; write minimized findings as corpus entries
//	hunt -replay dir-or-file               replay corpus entries against pinned verdicts
//	hunt -run scenario.json                run one scenario (or corpus entry) and print its verdict
//	hunt -pin entry.json                   re-run an entry and rewrite it with the current verdict
//
// Every mode takes -cpuprofile FILE / -memprofile FILE (read with go tool
// pprof); neither changes a byte of stdout.
//
// Campaign determinism: the same -seed and -budget produce byte-identical
// logs and findings at any -workers value (see internal/hunt's package
// doc). Logs go to stdout; timestamps never appear in them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/hunt"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errReported makes run exit 1 without a diagnostic: the failure (a
// finding, a failing verdict) is already on stdout.
var errReported = errors.New("reported on stdout")

// run is the whole driver with its process boundary made explicit, like
// cmd/hdsim's: arguments in, log on stdout, diagnostics on stderr, exit
// code back — 0 clean, 1 a finding, a failing verdict, a drifted corpus
// entry or an I/O error, 2 a flag syntax error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hunt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	budget := fs.Int("budget", 200, "scenario executions to spend exploring (excludes shrink runs)")
	seed := fs.Int64("seed", 1, "campaign master seed (drives every mutation draw)")
	batch := fs.Int("batch", 16, "mutants per generation")
	workers := fs.Int("workers", 0, "execution parallelism (0 = all cores, 1 = serial); never changes results")
	out := fs.String("out", "", "directory to write minimized findings as corpus entries (fuzz mode)")
	replay := fs.String("replay", "", "replay corpus entries from this file or directory")
	one := fs.String("run", "", "run one scenario or corpus-entry JSON file and print the verdict")
	pin := fs.String("pin", "", "re-run a corpus entry and rewrite its pinned verdict in place")
	startProfiles := cliutil.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sweep.SetDefaultWorkers(*workers)

	stopProfiles, err := startProfiles()
	if err == nil {
		switch {
		case *replay != "":
			err = replayCorpus(*replay, stdout)
		case *one != "":
			err = runOne(*one, stdout)
		case *pin != "":
			err = pinEntry(*pin, stdout)
		default:
			err = fuzz(*budget, *seed, *batch, *out, stdout)
		}
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}
	if err != nil {
		if !errors.Is(err, errReported) {
			fmt.Fprintln(stderr, "hunt:", err)
		}
		return 1
	}
	return 0
}

func fuzz(budget int, seed int64, batch int, out string, stdout io.Writer) error {
	res := hunt.Fuzz(hunt.FuzzConfig{
		MasterSeed: seed,
		Budget:     budget,
		BatchSize:  batch,
		Log:        stdout,
	})
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		for i, f := range res.Findings {
			e := hunt.Entry{
				Name:     fmt.Sprintf("%s-%s-%d", f.Minimal.Kind, f.Class, i),
				Note:     fmt.Sprintf("found by hunt -seed %d; shrunk %d->%d; original: %s", seed, f.ShrunkFrom, f.ShrunkTo, f.Scenario.Fingerprint()),
				Scenario: f.Minimal,
				Want:     f.MinimalOutcome,
			}
			b, err := hunt.EncodeEntry(e)
			if err != nil {
				return err
			}
			path := filepath.Join(out, e.Name+".json")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
	if len(res.Findings) > 0 {
		return errReported
	}
	return nil
}

// corpusFiles expands a file-or-directory path into the sorted list of
// its .json entries.
func corpusFiles(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			files = append(files, filepath.Join(path, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no corpus entries (*.json) under %s", path)
	}
	return files, nil
}

func readEntry(file string) (hunt.Entry, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return hunt.Entry{}, err
	}
	e, err := hunt.DecodeEntry(b)
	if err != nil {
		return hunt.Entry{}, fmt.Errorf("%s: %w", file, err)
	}
	return e, nil
}

func replayCorpus(path string, stdout io.Writer) error {
	files, err := corpusFiles(path)
	if err != nil {
		return err
	}
	failures := 0
	for _, file := range files {
		e, err := readEntry(file)
		if err != nil {
			return err
		}
		if err := hunt.Replay(e); err != nil {
			failures++
			fmt.Fprintf(stdout, "✗ %s\n  %v\n", e.Name, err)
			continue
		}
		fmt.Fprintf(stdout, "✓ %s — %s\n", e.Name, e.Want)
	}
	if failures > 0 {
		return fmt.Errorf("%d corpus entries drifted", failures)
	}
	return nil
}

// loadScenario reads either a bare Scenario or a full corpus Entry.
func loadScenario(file string) (hunt.Scenario, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return hunt.Scenario{}, err
	}
	if e, err := hunt.DecodeEntry(b); err == nil {
		return e.Scenario, nil
	}
	var s hunt.Scenario
	if err := json.Unmarshal(b, &s); err != nil {
		return hunt.Scenario{}, fmt.Errorf("%s: %w", file, err)
	}
	if err := s.Validate(); err != nil {
		return hunt.Scenario{}, fmt.Errorf("%s: %w", file, err)
	}
	return s, nil
}

func runOne(file string, stdout io.Writer) error {
	s, err := loadScenario(file)
	if err != nil {
		return err
	}
	o := s.Run()
	fmt.Fprintf(stdout, "%s\n%s\n", s.Fingerprint(), o.Verdict)
	if o.Failed() {
		return errReported
	}
	return nil
}

func pinEntry(file string, stdout io.Writer) error {
	e, err := readEntry(file)
	if err != nil {
		return err
	}
	e.Want = e.Scenario.Run().Verdict
	nb, err := hunt.EncodeEntry(e)
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, nb, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pinned %s — %s\n", e.Name, e.Want)
	return nil
}
