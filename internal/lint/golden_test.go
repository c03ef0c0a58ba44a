package lint

// Golden-file tests: each analyzer runs alone over its directory under
// testdata/src/, and the diagnostics must match the `// want "substring"`
// comments exactly — every finding needs a want on its line, every want
// needs a finding. Suppressed cases sit next to the positives in the same
// files, so the //shp: machinery is exercised on every run.

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

func TestGolden(t *testing.T) {
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dir      string
		analyzer *Analyzer
	}{
		{"maprange", mapRangeAnalyzer},
		{"nondet", nondetAnalyzer},
		{"nondetpar", nondetAnalyzer},
		{"codecsym", codecSymmetryAnalyzer},
		{"panicpolicy", panicPolicyAnalyzer},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := LoadDir(moduleDir, filepath.Join("testdata", "src", tc.dir))
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(pkg)
			for _, d := range Check([]*Package{pkg}, []*Analyzer{tc.analyzer}) {
				key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
				if !takeWant(wants, key, d.Message) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for key, subs := range wants {
				for _, sub := range subs {
					t.Errorf("%s: want a finding containing %q, got none", key, sub)
				}
			}
		})
	}
}

// collectWants extracts `want "substring"` fragments from every comment,
// keyed by "file:line" of the comment (a trailing want shares its
// statement's line).
func collectWants(pkg *Package) map[string][]string {
	wants := map[string][]string{}
	files := append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				text := c.Text
				for {
					i := strings.Index(text, `want "`)
					if i < 0 {
						break
					}
					rest := text[i+len(`want "`):]
					j := strings.IndexByte(rest, '"')
					if j < 0 {
						break
					}
					wants[key] = append(wants[key], rest[:j])
					text = rest[j+1:]
				}
			}
		}
	}
	return wants
}

// takeWant consumes the first want at key whose substring occurs in msg.
func takeWant(wants map[string][]string, key, msg string) bool {
	for i, sub := range wants[key] {
		if strings.Contains(msg, sub) {
			wants[key] = append(wants[key][:i], wants[key][i+1:]...)
			if len(wants[key]) == 0 {
				delete(wants, key)
			}
			return true
		}
	}
	return false
}
