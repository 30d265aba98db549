package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command with its process boundary made explicit:
// arguments in, findings or listings on stdout, errors on stderr, exit
// code back — 0 clean, 1 an unsuppressed diagnostic or a malformed
// suppression, 2 a usage or load error (`detlint: <error>` on stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ignores := fs.Bool("ignores", false, "list every //detlint:ignore suppression (file:line analyzer reason) instead of diagnostics")
	list := fs.Bool("analyzers", false, "list the analyzers and exit")
	flow := fs.Bool("flow", false, "also run detflow, the whole-module interprocedural nondeterminism taint analysis")
	report := fs.Bool("report", false, "with -flow: print the certified-deterministic API report instead of diagnostics")
	jsonOut := fs.Bool("json", false, "render diagnostics as a JSON array (machine-readable, byte-stable)")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}

	if *report && !*flow {
		return fail(fmt.Errorf("-report requires -flow"))
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	module, root, err := findModule()
	if err != nil {
		return fail(err)
	}
	dirs, err := expand(root, patterns)
	if err != nil {
		return fail(err)
	}

	loader := analysis.NewLoader(module, root, "")
	var (
		units   []*analysis.Unit
		diags   []analysis.Diagnostic
		sups    []analysis.Suppression
		badSups []error
	)
	for _, dir := range dirs {
		pkgPath := module
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			pkgPath = module + "/" + filepath.ToSlash(rel)
		}
		us, err := loader.LoadDir(pkgPath, dir)
		if err != nil {
			return fail(err)
		}
		for _, unit := range us {
			d, s, errs := analysis.RunUnit(loader, unit, analysis.All())
			units = append(units, unit)
			diags = append(diags, d...)
			sups = append(sups, s...)
			badSups = append(badSups, errs...)
		}
	}

	if *flow {
		fl := analysis.NewFlow(loader.Fset, units, root, sups)
		if *report {
			for _, err := range badSups {
				fmt.Fprintln(stderr, err)
			}
			if len(badSups) > 0 {
				return 1
			}
			fmt.Fprint(stdout, fl.Report())
			return 0
		}
		diags = append(diags, fl.Diagnostics()...)
	}

	if *ignores {
		sort.Slice(sups, func(i, j int) bool {
			a, b := sups[i], sups[j]
			if a.Pos.Filename != b.Pos.Filename {
				return a.Pos.Filename < b.Pos.Filename
			}
			return a.Pos.Line < b.Pos.Line
		})
		for _, s := range sups {
			rel := s.Pos.Filename
			if r, err := filepath.Rel(root, rel); err == nil {
				rel = r
			}
			fmt.Fprintf(stdout, "%s:%d: %s: %s\n", rel, s.Pos.Line, s.Analyzer, s.Reason)
		}
	}

	exit := 0
	for _, err := range badSups {
		fmt.Fprintln(stderr, err)
		exit = 1
	}
	if !*ignores {
		for i, d := range diags {
			if r, err := filepath.Rel(root, d.Pos.Filename); err == nil {
				diags[i].Pos.Filename = r
			}
		}
		analysis.SortDiagnostics(diags)
		if *jsonOut {
			stdout.Write(analysis.DiagnosticsJSON(diags))
			if len(diags) > 0 {
				exit = 1
			}
		} else {
			for _, d := range diags {
				fmt.Fprintln(stdout, d)
				exit = 1
			}
		}
	}
	return exit
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), `usage: detlint [-flow] [-report] [-json] [-ignores] [-analyzers] [packages]

detlint statically enforces this repo's determinism contracts
(ARCHITECTURE.md) over the given package patterns (default ./...).
-flow adds the interprocedural taint pass (nondeterminism laundered
through helpers and exempt packages); -flow -report prints the
certified-deterministic API report instead. Suppress a finding with an
adjacent "//detlint:ignore <analyzer> <reason>" comment; the reason is
mandatory.

Flags:
`)
	fs.PrintDefaults()
}

// findModule walks up from the working directory to go.mod and reads the
// module path.
func findModule() (module, root string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(dir, "go.mod")
		if f, err := os.Open(gomod); err == nil {
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if name, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(name), dir, nil
				}
			}
			return "", "", fmt.Errorf("%s: no module line", gomod)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// expand resolves package patterns to directories. "dir/..." walks
// recursively; anything else names a single directory. testdata, hidden
// directories, and nested modules are skipped, matching the go tool.
func expand(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if pat == "." {
			base = root
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if path != base {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
