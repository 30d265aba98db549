package analysis

import (
	"go/ast"
	"go/types"
)

// osenvFuncs are the package-level functions that read ambient host
// state: the environment, the process's identity, or the *shape* of the
// filesystem (directory enumeration, globbing). Explicit-path file I/O
// (os.ReadFile, os.WriteFile, …) is deliberately absent — reading a
// caller-named file is an explicit input, and internal/campaign's
// checkpoint store depends on exactly that; what breaks replayability
// is output that depends on what happens to be lying around on the
// host.
var osenvFuncs = map[string]map[string]bool{
	"os": {
		"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
		"Hostname": true, "Getpid": true, "Getppid": true, "Getuid": true,
		"Getwd": true, "UserHomeDir": true, "UserCacheDir": true,
		"UserConfigDir": true, "TempDir": true, "ReadDir": true,
	},
	"path/filepath": {
		"Walk": true, "WalkDir": true, "Glob": true,
	},
}

// osenvAt reports whether the selector expression resolves to one of the
// ambient-host-state readers, returning its rendered name ("os.Getenv").
func osenvAt(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	for pkg, names := range osenvFuncs {
		if names[sel.Sel.Name] && isPkgFunc(info.Uses[sel.Sel], pkg) {
			display := pkg
			if pkg == "path/filepath" {
				display = "filepath"
			}
			return display + "." + sel.Sel.Name, true
		}
	}
	return "", false
}

// Osenv forbids ambient host-state reads in deterministic packages:
// environment variables, process identity, and filesystem enumeration
// are host configuration, not (Config, seed), so any output derived
// from them is unreproducible. _test.go files are allowlisted — test
// harnesses legitimately consult the environment (CI knobs, testdata
// discovery) without those reads reaching canonical bytes, because
// build files cannot call test-file functions.
var Osenv = leaf("osenv", "forbids os.Getenv/os.Environ/os.ReadDir/filepath.Walk/… in deterministic packages (tests allowlisted)")
