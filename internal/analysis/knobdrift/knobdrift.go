// Package knobdrift keeps the tuning/fault knob table in knobs.go the
// single source of truth. Every knob (intra-parallel, gram-precompute,
// drop, reorder, maxdelay, heartbeat, checkpoint, rejoin-wait,
// checkpoint-file, topology, delta) is declared exactly once there, with
// its CLI flag name and its server JSON field name; cmd/asyncsolve
// registers flags via repro.RegisterKnobFlags and the server decodes job
// fields via repro.KnobByJSON. A flag.Int("intra-parallel", ...) or a
// `json:"intra_parallel"` struct tag anywhere else would silently
// fork the knob — same name, separately-maintained default, help text and
// validation — which is exactly the drift the table exists to prevent.
//
// The analyzer reads the LIVE table (repro.KnobTable), so adding a knob
// automatically extends the rule.
package knobdrift

import (
	"go/ast"
	"go/token"
	"reflect"
	"strconv"
	"strings"

	"repro"
	"repro/internal/analysis"
)

// Analyzer is the knobdrift rule.
var Analyzer = &analysis.Analyzer{
	Name: "knobdrift",
	Doc:  "flag flag registrations and json struct tags that duplicate a knob from the knobs.go table",
	Run:  run,
}

// knobFlags and knobJSON hold the table's names; loaded once from the live
// table so the analyzer can never lag behind knobs.go.
var knobFlags, knobJSON = func() (map[string]bool, map[string]bool) {
	flags, jsons := make(map[string]bool), make(map[string]bool)
	for _, k := range repro.KnobTable() {
		flags[k.Flag] = true
		jsons[k.JSON] = true
	}
	return flags, jsons
}()

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkFlagCall(pass, n)
			case *ast.StructType:
				checkTags(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkFlagCall flags calls into package flag whose name argument is a
// string literal naming a knob.
func checkFlagCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
		return
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			continue
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			continue
		}
		if knobFlags[name] {
			pass.Reportf(lit.Pos(),
				"flag %q duplicates a knob from the knobs.go table; register knob flags via repro.RegisterKnobFlags", name)
		}
	}
}

// checkTags flags json struct tags naming a knob's server field.
func checkTags(pass *analysis.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if field.Tag == nil {
			continue
		}
		raw, err := strconv.Unquote(field.Tag.Value)
		if err != nil {
			continue
		}
		jsonTag := reflect.StructTag(raw).Get("json")
		name, _, _ := strings.Cut(jsonTag, ",")
		if knobJSON[name] {
			pass.Reportf(field.Tag.Pos(),
				"json tag %q duplicates a knob from the knobs.go table; decode knob fields via repro.KnobByJSON", name)
		}
	}
}
