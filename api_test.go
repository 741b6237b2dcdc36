package adindex

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestExportedIdentifiers pins the size of the root package's public API:
// its exported top-level names (functions, types, variables, constants)
// plus the exported methods of its exported types, read from the non-test
// sources. A simplification adds no name; `make size` prints this test's
// log, which names every counted identifier, so a diff of two logs shows
// which names a change added or removed.
func TestExportedIdentifiers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range pkgs["adindex"].Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					if d.Name.IsExported() {
						names = append(names, d.Name.Name)
					}
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if typ, ok := recv.(*ast.Ident); ok && typ.IsExported() && d.Name.IsExported() {
					names = append(names, typ.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	for _, n := range names {
		t.Logf("  %s", n)
	}
	t.Logf("exported root identifiers: %d", len(names))
	if len(names) != 72 {
		t.Errorf("%d exported identifiers, want 72", len(names))
	}
}
