// Package analysis is a self-contained static-analysis framework in the
// spirit of golang.org/x/tools/go/analysis, scoped to what lpvet needs:
// typed AST passes over this module's packages, a suppression pragma, and
// golden-fixture tests. It deliberately avoids the x/tools dependency so
// the checker builds with the standard library alone; the loader
// (internal/analysis/load) recovers full type information offline from
// the go command's export-data cache.
//
// The contracts the passes enforce are the ones this repo's runtime
// suites (determinism tests, persistcheck, faultsim campaigns) probe
// dynamically — see DESIGN.md §7 for the pairing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named pass. Run is invoked once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lpvet:allow pragmas. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// ContractOnly restricts the pass to the contract-carrying packages
	// (see ContractPackages); the driver skips other packages.
	ContractOnly bool
	// Run reports violations via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and types to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunOnPackage executes one analyzer over an already-loaded package and
// returns its diagnostics. The driver and the fixture harness both build
// on this.
func RunOnPackage(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		diags:     &diags,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
	}
	return diags, nil
}

// ContractPackages are the module packages that carry the persistency and
// determinism contracts: every guarantee in DESIGN.md is implemented in
// one of these, so contract-only analyzers run exactly here.
var ContractPackages = map[string]bool{
	"gpulp/internal/gpusim":       true,
	"gpulp/internal/memsim":       true,
	"gpulp/internal/core":         true,
	"gpulp/internal/kernels":      true,
	"gpulp/internal/cluster":      true,
	"gpulp/internal/faultsim":     true,
	"gpulp/internal/persistcheck": true,
	"gpulp/internal/pmodel":       true,
	"gpulp/internal/serve":        true,
}

// --- shared type-matching helpers ---

// CalleeFunc resolves the static callee of a call, or nil for dynamic
// calls (function values, interface methods resolve to the interface
// method object).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// IsPkgFunc reports whether call statically invokes the package-level
// function pkgPath.name.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := CalleeFunc(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath &&
		f.Name() == name && f.Type().(*types.Signature).Recv() == nil
}

// NamedReceiver returns the named type of f's receiver (pointers
// dereferenced), or nil when f is not a method.
func NamedReceiver(f *types.Func) *types.Named {
	if f == nil {
		return nil
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// IsMethodOn reports whether call statically invokes a method named
// method on a (pointer to) named type typeName declared in a package
// whose name is pkgName. Matching by package *name* rather than import
// path lets fixture packages model the real API.
func IsMethodOn(info *types.Info, call *ast.CallExpr, pkgName, typeName, method string) bool {
	f := CalleeFunc(info, call)
	if f == nil || f.Name() != method {
		return false
	}
	n := NamedReceiver(f)
	if n == nil || n.Obj().Name() != typeName {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Name() == pkgName
}

// ImplementsError reports whether t (or *t) implements the error
// interface.
func ImplementsError(t types.Type) bool {
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface)
}

// IsErrorType reports whether t is exactly the error interface.
func IsErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
