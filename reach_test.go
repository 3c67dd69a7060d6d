package netmaster

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnreferencedDeclarations keeps code that nothing calls from
// accumulating. It parses every non-test .go file of the repository,
// perfbench/ included (its benchmark driver is a real caller), and lists
// each top-level func, type, var and const declared under internal/ or
// cmd/, plus the unexported ones of this package, that no non-test code
// refers to. A name counts as referenced by any identifier of its own
// package other than its declaration, or by a pkg.Name selector whose
// pkg is one of the file's imports.
//
// The scan is syntactic and under-reports: it skips methods, does not
// resolve types, and takes a recursive call, or a local variable or map
// key that shares a top-level name, as a reference to it. Names kept on purpose, such as
// helpers only other packages' tests use, go in
// testdata/unreferenced.txt, one "importpath.Name  reason" per line.
func TestNoUnreferencedDeclarations(t *testing.T) {
	mod := modulePath(t)
	declared := map[string]bool{} // "importpath.Name"
	referenced := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := path.Join(mod, dir)
		scanned := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		for _, name := range collectRefs(f, pkg, referenced) {
			if scanned || dir == "." && !token.IsExported(name) {
				declared[pkg+"."+name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allowed := readAllowlist(t, "testdata/unreferenced.txt")
	var unreferenced []string
	for name := range declared {
		if !referenced[name] && !allowed[name] {
			unreferenced = append(unreferenced, name)
		}
	}
	sort.Strings(unreferenced)
	for _, name := range unreferenced {
		t.Errorf("%s has no non-test reference: delete it, or allowlist it with a reason in testdata/unreferenced.txt", name)
	}
	for name := range allowed {
		switch {
		case !declared[name]:
			t.Errorf("allowlisted %s is no longer declared: drop it from testdata/unreferenced.txt", name)
		case referenced[name]:
			t.Errorf("allowlisted %s now has a non-test reference: drop it from testdata/unreferenced.txt", name)
		}
	}
}

// collectRefs records every name f refers to in referenced, keyed
// "importpath.Name", and returns the names of f's top-level funcs,
// types, vars and consts other than main, init and _.
func collectRefs(f *ast.File, pkg string, referenced map[string]bool) []string {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}

	decl := map[*ast.Ident]bool{}
	var names []string
	addDecl := func(id *ast.Ident) {
		decl[id] = true
		if id.Name != "_" && id.Name != "init" && id.Name != "main" {
			names = append(names, id.Name)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			decl[d.Name] = true
			if d.Recv == nil {
				addDecl(d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					addDecl(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						addDecl(id)
					}
				}
			}
		}
	}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.Field:
			// Field, parameter and interface-method names declare
			// rather than refer; only the type is visited.
			ast.Inspect(n.Type, visit)
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					referenced[p+"."+n.Sel.Name] = true
					return false
				}
			}
			// n.Sel is a field or method, not a top-level name.
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !decl[n] {
				referenced[pkg+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
	return names
}

// modulePath reads the module path from go.mod.
func modulePath(t *testing.T) string {
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("go.mod has no module line")
	return ""
}

// readAllowlist parses "importpath.Name  reason" lines; blank lines and
// lines starting with # are skipped, and every entry needs a reason.
func readAllowlist(t *testing.T, file string) map[string]bool {
	fh, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("%s: %q needs a reason after the name", file, line)
			continue
		}
		allowed[fields[0]] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}
