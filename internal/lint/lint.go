// Package lint is shplint: a repo-specific static-analysis suite that
// machine-checks the determinism contract the runtime equivalence tests
// sample. The repo's signature guarantee — patched == rebuilt, recovered ==
// undisturbed, all byte-identical — is easy to break silently: one `range`
// over a map in a merge loop, one wall-clock read in a hot path. Each
// analyzer here encodes one of those hazard classes so `go test ./...` (via
// TestLintClean) and CI fail before a flaky equivalence test ever would.
//
// The suite is stdlib-only (go/ast, go/parser, go/types); packages are
// loaded through `go list -deps -export -json`, so dependencies resolve from
// compiler export data with no external module.
//
// # Annotations
//
// Findings are suppressed with //shp: line comments carrying a mandatory
// justification, placed on the offending line or the line directly above:
//
//	//shp:ordered(reason) — maprange: iteration order provably immaterial
//	//shp:nondet(reason)  — nondet-sources: timing/stats only, not results
//	//shp:nocodec(reason) — codec-symmetry: registration exempt from a check
//	//shp:panics(reason)  — panic-policy: invariant assertion, not an API
//
// Empty justifications, unknown directives, and suppressions that no longer
// suppress anything are themselves diagnostics — annotations cannot rot
// silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// deterministicPackages names the packages whose code must be reproducible
// bit-for-bit given a seed: the refinement kernel, both execution planes,
// the graph structure they mutate, the RNG they draw from, the concurrency
// primitives (the one sanctioned GOMAXPROCS read lives there), the sharding
// simulator (replays must be comparable across runs), and the
// serving plane (epoch contents are pinned by seed; only wall-clock
// telemetry may vary, behind //shp:nondet annotations). Matching is by
// package name so the golden testdata packages can opt in by name alone.
var deterministicPackages = map[string]bool{
	"core":       true,
	"distshp":    true,
	"pregel":     true,
	"hypergraph": true,
	"rng":        true,
	"par":        true,
	"sharding":   true,
	"serve":      true,
}

// Package is one loaded, type-checked package presented to analyzers.
type Package struct {
	Path string // import path ("" for ad-hoc directory loads)
	Name string
	Fset *token.FileSet
	// Files are the type-checked non-test files.
	Files []*ast.File
	// TestFiles are the package's in-package _test.go files, parsed but not
	// type-checked (the codec-symmetry analyzer scans them for fuzz targets).
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
	// Deterministic reports whether this package is under the byte-identical
	// reproducibility contract (see deterministicPackages).
	Deterministic bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one hazard class.
type Analyzer struct {
	Name string
	// Doc is a one-line description (shown by cmd/shplint).
	Doc string
	// Suppress is the //shp: directive that silences this analyzer's
	// findings ("" if the analyzer cannot be suppressed).
	Suppress string
	Run      func(*Package) []Diagnostic
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		mapRangeAnalyzer,
		nondetAnalyzer,
		codecSymmetryAnalyzer,
		panicPolicyAnalyzer,
	}
}

// annotationAnalyzer names the pseudo-analyzer that reports malformed,
// unknown, empty, or unused //shp: annotations. It cannot be suppressed.
const annotationAnalyzer = "shp-annotation"

// directives maps each //shp: directive to the analyzer it suppresses.
var directives = map[string]string{
	"ordered": "maprange",
	"nondet":  "nondet-sources",
	"nocodec": "codec-symmetry",
	"panics":  "panic-policy",
}

// annotation is one parsed //shp: comment.
type annotation struct {
	directive string
	reason    string
	pos       token.Position
	// lines this annotation covers: its own line and the next (so a
	// trailing comment covers its statement and a standalone comment covers
	// the line below it).
	lines [2]int
	used  bool
}

// parseAnnotations extracts every //shp: comment from a file, reporting
// malformed ones as diagnostics.
func parseAnnotations(fset *token.FileSet, f *ast.File) ([]*annotation, []Diagnostic) {
	var anns []*annotation
	var diags []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, "//shp:") {
				continue
			}
			pos := fset.Position(c.Pos())
			body := strings.TrimPrefix(text, "//shp:")
			open := strings.IndexByte(body, '(')
			close := strings.LastIndexByte(body, ')')
			if open < 0 || close < open || strings.TrimSpace(body[close+1:]) != "" {
				diags = append(diags, Diagnostic{pos, annotationAnalyzer,
					fmt.Sprintf("malformed annotation %q: want //shp:directive(justification)", text)})
				continue
			}
			dir := body[:open]
			if _, known := directives[dir]; !known {
				diags = append(diags, Diagnostic{pos, annotationAnalyzer,
					fmt.Sprintf("unknown shp directive %q (known: %s)", dir, knownDirectives())})
				continue
			}
			reason := strings.TrimSpace(body[open+1 : close])
			if reason == "" {
				diags = append(diags, Diagnostic{pos, annotationAnalyzer,
					fmt.Sprintf("//shp:%s needs a non-empty justification", dir)})
				continue
			}
			anns = append(anns, &annotation{
				directive: dir,
				reason:    reason,
				pos:       pos,
				lines:     [2]int{pos.Line, pos.Line + 1},
			})
		}
	}
	return anns, diags
}

func knownDirectives() string {
	names := make([]string, 0, len(directives))
	for d := range directives {
		names = append(names, d)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Check runs the given analyzers over the packages, applies //shp:
// suppressions, and appends annotation-hygiene diagnostics. The result is
// sorted by position.
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		// Per-file suppression tables, keyed by analyzer then line.
		type suppKey struct {
			file string
			line int
		}
		supp := map[string]map[suppKey]*annotation{}
		var anns []*annotation
		allFiles := append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
		for _, f := range allFiles {
			fa, diags := parseAnnotations(pkg.Fset, f)
			out = append(out, diags...)
			for _, a := range fa {
				target := directives[a.directive]
				m := supp[target]
				if m == nil {
					m = map[suppKey]*annotation{}
					supp[target] = m
				}
				for _, line := range a.lines {
					m[suppKey{a.pos.Filename, line}] = a
				}
			}
			anns = append(anns, fa...)
		}
		for _, a := range analyzers {
			for _, d := range a.Run(pkg) {
				if m := supp[a.Name]; m != nil {
					if ann := m[suppKey{d.Pos.Filename, d.Pos.Line}]; ann != nil {
						ann.used = true
						continue
					}
				}
				out = append(out, d)
			}
		}
		// Only report staleness for analyzers that actually ran: a partial
		// run (golden tests exercise one analyzer at a time) must not call
		// another analyzer's suppressions unused.
		ran := map[string]bool{}
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		for _, ann := range anns {
			target := directives[ann.directive]
			if !ann.used && ran[target] {
				out = append(out, Diagnostic{ann.pos, annotationAnalyzer,
					fmt.Sprintf("stale //shp:%s suppression: no %s finding on this or the next line", ann.directive, target)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// funcObj resolves a call expression's callee to its *types.Func, or nil for
// builtins, conversions, and indirect calls.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}
