package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// fmtFormatArg maps fmt's formatting entry points to the index of their
// format-string argument; -1 marks the Print/Sprint family, which has no
// verbs but still renders every operand with %v semantics.
var fmtFormatArg = map[string]int{
	"Printf": 0, "Sprintf": 0, "Errorf": 0,
	"Fprintf": 1, "Appendf": 1,
	"Print": -1, "Println": -1, "Sprint": -1, "Sprintln": -1,
	"Fprint": -1, "Fprintln": -1, "Append": -1, "Appendln": -1,
}

// Ptrformat flags formatting that leaks address bits or iteration order
// into rendered bytes within deterministic packages. Traces, digests and
// tables are "canonical" only if the same run always renders the same
// bytes: %p and pointer operands print virtual addresses (ASLR makes
// them differ run to run), and map/chan/func operands either depend on
// runtime state or (for maps) on fmt's own key ordering, which is not
// part of this repo's canonical-bytes contract — rendering code must
// extract and sort keys explicitly.
var Ptrformat = leaf("ptrformat", "flags %p and pointer/map/chan/func operands to fmt in deterministic packages")

// ptrLeak is one address/order leak in a fmt call.
type ptrLeak struct {
	pos token.Pos
	msg string
}

// ptrLeaksAt inspects one call expression for formatting that leaks
// address bits or iteration order.
func ptrLeaksAt(info *types.Info, call *ast.CallExpr) []ptrLeak {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fmtIdx, ok := fmtFormatArg[sel.Sel.Name]
	if !ok || !isPkgFunc(info.Uses[sel.Sel], "fmt") {
		return nil
	}
	var leaks []ptrLeak
	firstOperand := fmtIdx + 1
	if fmtIdx >= 0 && fmtIdx < len(call.Args) {
		if format, ok := stringLiteral(info, call.Args[fmtIdx]); ok && strings.Contains(verbsOf(format), "p") {
			leaks = append(leaks, ptrLeak{call.Args[fmtIdx].Pos(), "%p renders a virtual address; address bits are nondeterministic and must not reach trace/digest/table bytes"})
		}
	}
	for _, arg := range call.Args[min(firstOperand, len(call.Args)):] {
		tv, ok := info.Types[arg]
		if !ok {
			continue
		}
		if kind := leakyOperand(tv.Type); kind != "" {
			leaks = append(leaks, ptrLeak{arg.Pos(), fmt.Sprintf("%s operand reaches fmt.%s: %s; extract and sort explicitly before rendering (canonical-bytes contract)", kind, sel.Sel.Name, leakWhy(kind))})
		}
	}
	return leaks
}

// stringLiteral resolves arg to a compile-time string constant (literal
// or named constant), if it is one.
func stringLiteral(info *types.Info, arg ast.Expr) (string, bool) {
	tv, ok := info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// verbsOf extracts the verb characters of a fmt format string ("%6.2f %p"
// yields "fp"); flags, width, precision and argument indexes are skipped.
func verbsOf(format string) string {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && strings.ContainsRune("+-# 0123456789.*[]", rune(format[i])) {
			i++
		}
		if i < len(format) && format[i] != '%' {
			verbs = append(verbs, format[i])
		}
	}
	return string(verbs)
}

// leakyOperand classifies types whose default rendering depends on
// runtime state. Pointers to structs and arrays are allowed — fmt
// dereferences them to their contents — but any other pointer prints its
// address.
func leakyOperand(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Chan:
		return "chan"
	case *types.Signature:
		return "func"
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return "unsafe.Pointer"
		}
	case *types.Pointer:
		switch u.Elem().Underlying().(type) {
		case *types.Struct, *types.Array:
			return ""
		}
		return "pointer"
	}
	return ""
}

func leakWhy(kind string) string {
	if kind == "map" {
		return "iteration/rendering order is not part of the canonical-bytes contract"
	}
	return fmt.Sprintf("a %s renders as a virtual address", kind)
}
