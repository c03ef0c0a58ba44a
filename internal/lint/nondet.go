package lint

// nondet-sources: reads of nondeterministic sources in deterministic
// packages. Four classes:
//
//   - the global math/rand source (rand.Intn, rand.Float64, ...): shared
//     state seeded from runtime entropy. Seeded generators — rand.New over
//     an explicit source, or this repo's internal/rng streams — are fine.
//   - wall-clock reads (time.Now/Since/Until): legitimate for timing stats
//     and I/O deadlines, never for anything that feeds an assignment;
//     annotate //shp:nondet(reason) at such sites.
//   - select over two or more channels: when several cases are ready the
//     runtime picks uniformly at random, so multi-channel selects order
//     events nondeterministically.
//   - runtime.GOMAXPROCS reads outside par.Workers: the worker count varies
//     by machine, and any decomposition derived from it directly would make
//     results machine-dependent. par.Workers is the single sanctioned read —
//     it only resolves and caps Parallelism, and every consumer downstream is
//     held to the worker-count-independence discipline.

import (
	"fmt"
	"go/ast"
)

var nondetAnalyzer = &Analyzer{
	Name:     "nondet-sources",
	Doc:      "flag global math/rand, wall-clock reads, and multi-channel selects in deterministic packages",
	Suppress: "nondet",
	Run:      runNondet,
}

// seededRandConstructors are the math/rand(/v2) functions that build
// explicitly seeded generators rather than reading the global source.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// wallClockFuncs are the time package's wall-clock reads.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runNondet(pkg *Package) []Diagnostic {
	if !pkg.Deterministic {
		return nil
	}
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Pos:      pkg.Fset.Position(n.Pos()),
			Analyzer: "nondet-sources",
			Message:  fmt.Sprintf(format, args...) + "; annotate //shp:nondet(reason) if this never feeds results",
		})
	}
	for _, f := range pkg.Files {
		// par.Workers is the one sanctioned runtime.GOMAXPROCS read; record
		// its extent so calls inside it are exempt. Keyed by package name so
		// the golden testdata can opt in, like the deterministic gate itself.
		var workersDecls []*ast.FuncDecl
		if pkg.Name == "par" {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "Workers" {
					workersDecls = append(workersDecls, fd)
				}
			}
		}
		insideWorkers := func(n ast.Node) bool {
			for _, fd := range workersDecls {
				if n.Pos() >= fd.Pos() && n.End() <= fd.End() {
					return true
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := funcObj(pkg.Info, n)
				if fn == nil || fn.Pkg() == nil || fn.Signature().Recv() != nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "math/rand", "math/rand/v2":
					if !seededRandConstructors[fn.Name()] {
						report(n, "call to the global math/rand source (%s.%s): draws differ across runs", fn.Pkg().Name(), fn.Name())
					}
				case "time":
					if wallClockFuncs[fn.Name()] {
						report(n, "wall-clock read (time.%s) in a deterministic package", fn.Name())
					}
				case "runtime":
					if fn.Name() == "GOMAXPROCS" && !insideWorkers(n) {
						report(n, "runtime.GOMAXPROCS read outside par.Workers: resolve worker counts through par.Workers so decompositions stay machine-independent")
					}
				}
			case *ast.SelectStmt:
				comms := 0
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						comms++
					}
				}
				if comms >= 2 {
					report(n, "select over %d channels: the runtime picks a ready case at random", comms)
				}
			}
			return true
		})
	}
	return diags
}
