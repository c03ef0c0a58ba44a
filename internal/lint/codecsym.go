package lint

// codec-symmetry: cross-file contract checks for the pregel typed-codec
// plane. Every `Register(sample, codec)` call on a codec Registry is a
// promise with two parts that no single file shows:
//
//   - the codec must actually decode what it encodes (an Append/Decode
//     pair, not an encode-only stub);
//   - hostile bytes must be covered: some Fuzz* target in the package's
//     tests must exercise the codec (by naming its type) or the whole
//     registry (by naming the constructor the registration lives in).
//
// Suppress a registration's findings with //shp:nocodec(reason).

import (
	"fmt"
	"go/ast"
	"go/types"
)

var codecSymmetryAnalyzer = &Analyzer{
	Name:     "codec-symmetry",
	Doc:      "registered codecs need decode symmetry and fuzz coverage",
	Suppress: "nocodec",
	Run:      runCodecSymmetry,
}

// registration is one Register(sample, codec) call.
type registration struct {
	call      *ast.CallExpr
	msgType   types.Type
	codecType types.Type
	// enclosing is the function object the call appears in (nil at package
	// scope).
	enclosing *types.Func
}

func runCodecSymmetry(pkg *Package) []Diagnostic {
	regs := collectRegistrations(pkg)
	if len(regs) == 0 {
		return nil
	}
	fuzzRefs := fuzzIdentSets(pkg)

	var diags []Diagnostic
	report := func(call *ast.CallExpr, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Pos:      pkg.Fset.Position(call.Pos()),
			Analyzer: "codec-symmetry",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	qual := types.RelativeTo(pkg.Types)
	for _, reg := range regs {
		msgName := types.TypeString(reg.msgType, qual)
		codecName := types.TypeString(reg.codecType, qual)

		// Decode symmetry: the codec's method set must carry both halves.
		if named := namedOf(reg.codecType); named != nil {
			missing := ""
			for _, m := range []string{"Append", "Decode"} {
				if !hasMethod(reg.codecType, m) {
					missing += " " + m
				}
			}
			if missing != "" {
				report(reg.call, "codec %s registered for %s is missing%s: every codec needs an encode/decode pair", codecName, msgName, missing)
			}
		}

		// Fuzz coverage: the codec type or its registry constructor must be
		// named by some fuzz target.
		covered := false
		for _, refs := range fuzzRefs {
			if named := namedOf(reg.codecType); named != nil && refs[named.Obj().Name()] {
				covered = true
				break
			}
			if reg.enclosing != nil && refs[reg.enclosing.Name()] {
				covered = true
				break
			}
		}
		if !covered {
			report(reg.call, "codec %s registered for %s has no fuzz target: no Fuzz* function references the codec or its registry constructor", codecName, msgName)
		}
	}
	return diags
}

// collectRegistrations finds Register method calls on *Registry receivers.
func collectRegistrations(pkg *Package) []registration {
	var regs []registration
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			var enclosing *types.Func
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				enclosing = obj
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Register" {
					return true
				}
				recv, ok := pkg.Info.Types[sel.X]
				if !ok || namedNameOf(recv.Type) != "Registry" {
					return true
				}
				msgTV, ok1 := pkg.Info.Types[call.Args[0]]
				codecTV, ok2 := pkg.Info.Types[call.Args[1]]
				if !ok1 || !ok2 {
					return true
				}
				regs = append(regs, registration{
					call:      call,
					msgType:   msgTV.Type,
					codecType: codecTV.Type,
					enclosing: enclosing,
				})
				return true
			})
		}
	}
	return regs
}

// fuzzIdentSets collects, for each Fuzz* function in the package's test
// files, the set of identifier names its body mentions.
func fuzzIdentSets(pkg *Package) []map[string]bool {
	var sets []map[string]bool
	for _, f := range pkg.TestFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || len(fd.Name.Name) < 5 || fd.Name.Name[:4] != "Fuzz" {
				continue
			}
			refs := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					refs[id.Name] = true
				}
				return true
			})
			sets = append(sets, refs)
		}
	}
	return sets
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func namedNameOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}

func hasMethod(t types.Type, name string) bool {
	if _, ok := t.Underlying().(*types.Interface); ok {
		return true // interface values promise the full Codec contract
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}
