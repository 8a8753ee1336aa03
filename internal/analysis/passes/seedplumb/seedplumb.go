// Package seedplumb enforces seed threading in contract packages: every
// rand.NewSource / rand.New seed must derive from a threaded seed value
// (a config field, parameter, or a value computed from one), never a
// compile-time constant, and no contract package may hold RNG state in a
// package-level variable.
//
// A constant seed makes a scenario generator produce the same "random"
// campaign on every run regardless of the -seed flag — coverage silently
// collapses to one trajectory while the reports keep claiming seeded
// breadth. Package-level RNGs are worse: they thread hidden state across
// callers, so two identically-seeded runs diverge the moment call order
// changes (exactly what the determinism contract forbids: a campaign's
// report must not depend on its host fan-out).
package seedplumb

import (
	"go/ast"

	"gpulp/internal/analysis"
)

// Analyzer is the seedplumb pass.
var Analyzer = &analysis.Analyzer{
	Name:         "seedplumb",
	ContractOnly: true,
	Doc: "rand.NewSource seeds must derive from threaded seed values, not " +
		"constants, and RNG state must not live in package-level variables",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Package-level RNG state: a top-level var whose initializer
		// constructs any math/rand value.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					ast.Inspect(val, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						if isRandCtor(pass, call) {
							pass.Reportf(call.Pos(),
								"package-level RNG state: construct the *rand.Rand where the seed is threaded in")
							return false
						}
						return true
					})
				}
			}
		}
		// Constant seeds at any construction site.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isRandCtor(pass, call) || len(call.Args) == 0 {
				return true
			}
			allConst := true
			for _, arg := range call.Args {
				if tv, ok := pass.TypesInfo.Types[arg]; !ok || tv.Value == nil {
					allConst = false
					break
				}
			}
			if allConst {
				pass.Reportf(call.Pos(),
					"constant seed: derive the seed from a threaded parameter or config field so -seed actually varies the run")
			}
			return true
		})
	}
	return nil
}

// isRandCtor matches the math/rand (and math/rand/v2) constructors that
// bake in a source or seed.
func isRandCtor(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, pkg := range []string{"math/rand", "math/rand/v2"} {
		for _, name := range []string{"NewSource", "New", "NewPCG", "NewChaCha8"} {
			if analysis.IsPkgFunc(pass.TypesInfo, call, pkg, name) {
				return true
			}
		}
	}
	return false
}
