package lint

// panic-policy: library packages surface typed errors, not bare panics.
// The engine's own misuse panic — a Send to an absent vertex — is a typed
// *sendError recovered at the worker boundary and returned as a
// *ComputeError; this analyzer keeps the rest of the tree on that standard.
// Allowed without annotation:
//
//   - panicking with a value that implements error (the typed-panic
//     protocol: a recover boundary converts it into a returned error);
//   - re-panics inside a function that calls recover (propagating a foreign
//     panic after filtering the typed ones);
//   - main packages, where a panic is a crash either way.
//
// Genuine invariant assertions — "this state is corrupt, continuing would
// corrupt data" — stay as panics with //shp:panics(reason) stating the
// invariant.

import (
	"fmt"
	"go/ast"
	"go/types"
)

var panicPolicyAnalyzer = &Analyzer{
	Name:     "panic-policy",
	Doc:      "library packages return typed errors instead of panicking",
	Suppress: "panics",
	Run:      runPanicPolicy,
}

func runPanicPolicy(pkg *Package) []Diagnostic {
	if pkg.Name == "main" {
		return nil
	}
	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	var diags []Diagnostic
	for _, f := range pkg.Files {
		// funcStack tracks the innermost function literal/declaration so a
		// panic can be matched against its own recover, not an outer one's.
		var funcStack []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				if b := body(n); b != nil {
					funcStack = append(funcStack, n)
					ast.Inspect(b, func(m ast.Node) bool { return walk(m) })
					funcStack = funcStack[:len(funcStack)-1]
				}
				return false
			case *ast.CallExpr:
				id, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok || id.Name != "panic" || len(n.Args) != 1 {
					return true
				}
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				if tv, ok := pkg.Info.Types[n.Args[0]]; ok && types.Implements(tv.Type, errorType) {
					return true // typed-panic protocol: recovered and returned
				}
				if len(funcStack) > 0 && callsRecover(pkg, body(funcStack[len(funcStack)-1])) {
					return true // re-panic on the recovery path
				}
				diags = append(diags, Diagnostic{
					Pos:      pkg.Fset.Position(n.Pos()),
					Analyzer: "panic-policy",
					Message: fmt.Sprintf("panic in library package %s: surface a typed error (see pregel.ComputeError) or annotate //shp:panics(reason) for an invariant assertion",
						pkg.Name),
				})
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return diags
}

func body(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

func callsRecover(pkg *Package, b *ast.BlockStmt) bool {
	if b == nil {
		return false
	}
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				found = true
			}
		}
		return true
	})
	return found
}
