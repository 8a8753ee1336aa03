// Package determinism flags wall-clock and ambient-randomness escapes in
// contract-carrying packages, plus map iteration that feeds
// order-sensitive sinks without an intervening sort.
//
// The runtime counterpart is the root determinism suite: every report,
// durable image, and campaign summary must be bit-identical when the same
// configuration runs twice, at any host fan-out and across GOMAXPROCS.
// The three ways code breaks that contract in practice are reading the
// clock, consulting the global math/rand source, and letting Go's
// randomized map iteration order leak into output or durable writes. All
// three are detectable statically.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"gpulp/internal/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name:         "determinism",
	ContractOnly: true,
	Doc: "flag time.Now/global math/rand/unsorted map iteration in contract packages: " +
		"anything that can make two identically-seeded runs diverge",
	Run: run,
}

// wallClock are the time package functions that read the wall clock (or
// arm wall-clock timers). time.Duration arithmetic is fine.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRand are the math/rand package-level functions backed by the
// shared global source. Constructors (New, NewSource) are allowed here;
// the seedplumb pass polices their seeds.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClock[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(call.Pos(),
				"time.%s in a contract package: wall-clock reads break seeded reproducibility", fn.Name())
		}
	case "math/rand":
		if globalRand[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(call.Pos(),
				"rand.%s uses the global source: thread a seeded *rand.Rand instead", fn.Name())
		}
	}
}

// checkMapRange flags `for ... := range m` over a map when the loop body
// feeds an order-sensitive sink: an append to a slice declared outside
// the loop that is not subsequently sorted in the same function, a
// durable write (memsim Store*/HostWrite*), or direct formatted output.
// Order-insensitive bodies — counter updates, map-to-map copies, min/max
// folds — pass.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}

	var appended []*types.Var // slice vars appended to inside the body
	flagged := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if flagged {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v := appendTarget(pass.TypesInfo, call); v != nil {
			if !declaredWithin(pass.TypesInfo, v, rng) {
				appended = append(appended, v)
			}
			return true
		}
		if isOrderSink(pass.TypesInfo, call) {
			pass.Reportf(rng.Pos(),
				"map iteration feeds an order-sensitive sink (%s): iterate a sorted key slice instead",
				sinkName(pass.TypesInfo, call))
			flagged = true
		}
		return true
	})
	if flagged {
		return
	}
	for _, v := range appended {
		if !sortedAfter(pass, file, rng, v) {
			pass.Reportf(rng.Pos(),
				"map iteration appends to %q without a subsequent sort: iteration order leaks into the slice", v.Name())
			return
		}
	}
}

// appendTarget returns the variable v for statements shaped
// `v = append(v, ...)` inside an assignment, else nil.
func appendTarget(info *types.Info, call *ast.CallExpr) *types.Var {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[base].(*types.Var)
	return v
}

// declaredWithin reports whether v's declaration lies inside node.
func declaredWithin(info *types.Info, v *types.Var, node ast.Node) bool {
	return v.Pos() >= node.Pos() && v.Pos() < node.End()
}

// isOrderSink reports whether call emits in iteration order somewhere a
// reader (or the durable image) can see: formatted output, writers, or a
// memsim durable write.
func isOrderSink(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	}
	recv := analysis.NamedReceiver(fn)
	if recv != nil && recv.Obj().Pkg() != nil && recv.Obj().Pkg().Name() == "memsim" {
		switch recv.Obj().Name() {
		case "Memory", "Region":
			name := fn.Name()
			if name == "Store" || name == "HostWrite" ||
				hasPrefix(name, "Store") || hasPrefix(name, "HostWrite") {
				return true
			}
		}
	}
	return false
}

func hasPrefix(s, p string) bool { return len(s) > len(p) && s[:len(p)] == p }

func sinkName(info *types.Info, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return "call"
	}
	if recv := analysis.NamedReceiver(fn); recv != nil {
		return recv.Obj().Name() + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// sortedAfter reports whether, after the range loop in the same
// function, v is passed to a sort (sort.* or slices.Sort*) call.
func sortedAfter(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt, v *types.Var) bool {
	fn := enclosingFunc(file, rng.Pos())
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		// Only calls after the loop can fix the order.
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		callee := analysis.CalleeFunc(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		pkg := callee.Pkg().Path()
		isSort := pkg == "sort" || (pkg == "slices" && hasPrefixOrEq(callee.Name(), "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if mentionsVar(pass.TypesInfo, arg, v) {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

func hasPrefixOrEq(s, p string) bool { return s == p || hasPrefix(s, p) }

func mentionsVar(info *types.Info, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var enc ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				enc = n // innermost wins: later matches are nested deeper
			}
		}
		return true
	})
	return enc
}
