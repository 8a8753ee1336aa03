// Package persistbarrier flags writes that reach the durable pool (or
// the cache lines fronting it) without going through the Store/HostWrite
// barrier API.
//
// Two bypass shapes exist in this codebase:
//
//  1. Inside memsim itself: a direct assignment or copy into the
//     Memory.nvm backing array. Every durable mutation must route
//     through mutateNVM, the one durable mutator. Its callers emit the
//     matching persist event, which the persist observer (persistcheck's
//     oracle) and the media model follow; a raw write changes the image
//     behind their backs.
//
//  2. Anywhere: mutating the byte slice returned by (*Memory).Load. That
//     slice aliases live cache-line storage — writing through it changes
//     the coherent value without marking the line dirty, so the change
//     is never written back, never observed, and never checksummed: a
//     durable write that bypassed the LP barrier entirely.
//
// The runtime counterpart is persistcheck's bit-exact durable oracle,
// which only catches a bypass on schedules where the stale line is
// eventually compared.
package persistbarrier

import (
	"go/ast"
	"go/types"

	"gpulp/internal/analysis"
)

// Analyzer is the persistbarrier pass.
var Analyzer = &analysis.Analyzer{
	Name: "persistbarrier",
	Doc: "durable writes must go through the Store/HostWrite barrier API: " +
		"flag raw memsim.nvm writes outside mutateNVM and " +
		"mutation of cache-aliasing Load results",
	Run: run,
}

// durableMutator is the one memsim function allowed to write m.nvm raw.
// Growth replaces the whole slice (m.nvm = append(...)), which never
// overwrites live durable bytes and is not a write this pass flags.
const durableMutator = "mutateNVM"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRawNVM(pass, fd)
			checkLoadAliases(pass, fd)
		}
	}
	return nil
}

// --- shape 1: raw writes to Memory.nvm ---

func checkRawNVM(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Name.Name == durableMutator {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if base := indexedNVM(pass, lhs); base != nil {
					pass.Reportf(lhs.Pos(),
						"raw write to Memory.nvm bypasses the durable mutator: route through mutateNVM")
				}
			}
		case *ast.IncDecStmt:
			if base := indexedNVM(pass, n.X); base != nil {
				pass.Reportf(n.X.Pos(),
					"raw write to Memory.nvm bypasses the durable mutator: route through mutateNVM")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
					if isNVMSelector(pass, n.Args[0]) {
						pass.Reportf(n.Args[0].Pos(),
							"copy into Memory.nvm bypasses the durable mutator: route through mutateNVM")
					}
				}
			}
		}
		return true
	})
}

// indexedNVM returns the nvm selector when e is nvm[...] (an element
// write), else nil.
func indexedNVM(pass *analysis.Pass, e ast.Expr) ast.Expr {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	if isNVMSelector(pass, ix.X) {
		return ix.X
	}
	return nil
}

// isNVMSelector reports whether e denotes the nvm field of a memsim
// Memory (possibly sliced: m.nvm[a:b] counts).
func isNVMSelector(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "nvm" {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return false
	}
	pkg := obj.Pkg()
	if pkg == nil || pkg.Name() != "memsim" {
		return false
	}
	return true
}

// --- shape 2: writing through a Load-aliased slice ---

// checkLoadAliases tracks, per function, variables bound to the first
// result of (*memsim.Memory).Load and flags writes through them.
func checkLoadAliases(pass *analysis.Pass, fd *ast.FuncDecl) {
	tainted := map[*types.Var]ast.Expr{} // var -> the Load call that bound it
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// b, res := m.Load(...) — multi-assign from one call.
		if len(asg.Rhs) == 1 {
			if call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr); ok &&
				analysis.IsMethodOn(pass.TypesInfo, call, "memsim", "Memory", "Load") {
				if len(asg.Lhs) > 0 {
					if id, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident); ok {
						if v := varOf(pass.TypesInfo, id); v != nil {
							tainted[v] = call
						}
					}
				}
			}
		}
		return true
	})
	if len(tainted) == 0 {
		return
	}
	report := func(pos ast.Node, v *types.Var) {
		pass.Reportf(pos.Pos(),
			"write through %q mutates cache-line storage aliased by Load: the change is never marked dirty, "+
				"never written back, and bypasses the LP barrier — use Store instead", v.Name())
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := indexedVar(pass, lhs); v != nil && tainted[v] != nil {
					report(lhs, v)
				}
			}
		case *ast.IncDecStmt:
			if v := indexedVar(pass, n.X); v != nil && tainted[v] != nil {
				report(n.X, v)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
					if v := sliceBaseVar(pass, n.Args[0]); v != nil && tainted[v] != nil {
						report(n.Args[0], v)
					}
				}
			}
		}
		return true
	})
}

func varOf(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// indexedVar returns the variable v when e is v[...] .
func indexedVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(ix.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return varOf(pass.TypesInfo, id)
}

// sliceBaseVar returns v for expressions v or v[a:b].
func sliceBaseVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return varOf(pass.TypesInfo, id)
}
