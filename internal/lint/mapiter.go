// Package lint holds vet-style checks for determinism hazards the standard
// toolchain does not catch. The simulation's outputs must be byte-identical
// across runs and worker counts, and the classic way to lose that property
// in Go is ranging over a map on a simulation-visible path: iteration order
// is randomized per run, so any map-ordered sequence of IOs, event
// schedules, or slot assignments diverges silently.
//
// CheckMapIter flags every `for ... range m` where m is map-typed. Ranges
// whose order provably cannot reach simulation state are suppressed by a
// `//mapiter:sorted` comment on the range line — the convention is that the
// loop only collects keys that are sorted (or order-insensitively reduced)
// before use, and the comment is the reviewer's assertion of that.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one unsuppressed map iteration.
type Finding struct {
	Pos  string // file:line
	Text string // one-line description
}

// CheckMapIter type-checks the package in each directory and returns a
// finding for every range over a map-typed expression not marked
// //mapiter:sorted. Test files are skipped: their iteration order cannot
// reach simulation outputs.
func CheckMapIter(dirs []string) ([]Finding, error) {
	// One file set and one source importer serve every directory, so each
	// imported package, std included, is type-checked once per call.
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var out []Finding
	for _, dir := range dirs {
		fs, err := checkDir(fset, imp, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

func checkDir(fset *token.FileSet, imp types.Importer, dir string) ([]Finding, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, name := range sortedKeys(pkgs) {
		pkg := pkgs[name]
		files := make([]*ast.File, 0, len(pkg.Files))
		for _, fname := range sortedKeys(pkg.Files) {
			files = append(files, pkg.Files[fname])
		}
		// Type-check from source so map-typed expressions are recognized
		// through aliases, struct fields, and function results. Type errors
		// are tolerated: a partially-typed package still yields the Types
		// entries the range check needs.
		conf := types.Config{
			Importer:         imp,
			Error:            func(error) {},
			IgnoreFuncBodies: false,
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
		_, _ = conf.Check(dir, fset, files, info)

		for _, f := range files {
			suppressed := suppressedLines(fset, f)
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				pos := fset.Position(rs.Pos())
				if suppressed[pos.Line] {
					return true
				}
				findings = append(findings, Finding{
					Pos: fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line),
					Text: fmt.Sprintf("range over map %s: iteration order is nondeterministic; "+
						"sort the keys or mark //mapiter:sorted", types.ExprString(rs.X)),
				})
				return true
			})
		}
	}
	return findings, nil
}

// suppressedLines returns the lines carrying a //mapiter:sorted marker.
func suppressedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "mapiter:sorted") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //mapiter:sorted
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
