package analysis

// All returns the detlint suite in reporting order. Each analyzer
// enforces one determinism contract from ARCHITECTURE.md; the mapping is
// documented in the "Enforcement" entries of that file's per-layer
// contract sections.
func All() []*Analyzer {
	return []*Analyzer{Maprange, Wallclock, Globalrand, Unsortedgo, Ptrformat, Selectorder, Unstablesort, Osenv}
}

// Known returns the analyzer-name set, used to validate
// //detlint:ignore comments. FlowName is included: the interprocedural
// pass is not a per-unit Analyzer, but its call-site diagnostics are
// suppressed through the same protocol.
func Known() map[string]bool {
	known := map[string]bool{FlowName: true, UnreachedName: true}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// RunUnit executes the given analyzers over one loaded unit and returns
// the unsuppressed diagnostics plus the suppressions that were applied.
// Malformed suppression comments are returned as errors. Suppression
// comments are validated against the full Known() set, not just the
// analyzers being run: a fixture exercising one analyzer may carry
// suppressions for another.
func RunUnit(loader *Loader, unit *Unit, analyzers []*Analyzer) ([]Diagnostic, []Suppression, []error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     loader.Fset,
			Files:    unit.Files,
			Pkg:      unit.Pkg,
			Info:     unit.Info,
			PkgPath:  unit.PkgPath,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, []error{err}
		}
	}
	sups, errs := CollectSuppressions(loader.Fset, unit.Files, Known())
	diags = FilterSuppressed(diags, sups)
	SortDiagnostics(diags)
	return diags, sups, errs
}
