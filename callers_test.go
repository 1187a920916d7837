package fidelius

import (
	"go/ast"
	"go/token"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerExempt are the method names a caller reaches through an
// interface of the standard library (fmt, errors, encoding) without
// naming them.
var callerExempt = map[string]bool{"String": true, "Error": true, "MarshalBinary": true, "UnmarshalBinary": true}

// funcDecl is one top-level function or method declared in a non-test
// file under internal/.
type funcDecl struct {
	dir, name string
	method    bool
	file      string
	start     token.Pos
	end       token.Pos
	pos       token.Position
}

// funcRef is one identifier that could name a declared function: a bare
// identifier (pkg empty) or the selector of a qualified one (pkg is the
// import path of the qualifier, or "" when X is not an import).
type funcRef struct {
	dir, file string
	test      bool
	pkg       string
	pos       token.Pos
}

// TestEveryFunctionHasACaller checks that every top-level function and
// method declared in a non-test file under internal/ is named somewhere
// other than its own declaration: in a non-test Go file of the module
// (the facade, cmd/, examples/ and benchmark/ count), or in a _test.go
// file of another directory. A function only its own package's tests
// reach belongs in those tests or nowhere. Methods match by name, so an
// interface method counts as named wherever the interface is used; a
// plain function must be named in its own package or qualified by an
// import of it. The check reads source only; nothing is built.
func TestEveryFunctionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var decls []funcDecl
	refs := map[string][]funcRef{} // identifier name -> occurrences

	parseModule(t, fset, func(p string, file *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(p))
		test := strings.HasSuffix(p, "_test.go")
		imports := map[string]string{} // local name -> import path
		for _, im := range file.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		if !test && strings.HasPrefix(dir, "internal/") {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || callerExempt[fd.Name.Name] {
					continue
				}
				decls = append(decls, funcDecl{
					dir: dir, name: fd.Name.Name, method: fd.Recv != nil, file: p,
					start: fd.Pos(), end: fd.End(), pos: fset.Position(fd.Name.Pos()),
				})
			}
		}
		qualified := map[*ast.Ident]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pkg := ""
				if x, ok := n.X.(*ast.Ident); ok {
					pkg = imports[x.Name]
				}
				qualified[n.Sel] = true
				refs[n.Sel.Name] = append(refs[n.Sel.Name], funcRef{dir: dir, file: p, test: test, pkg: pkg, pos: n.Sel.Pos()})
			case *ast.Ident:
				if !qualified[n] {
					refs[n.Name] = append(refs[n.Name], funcRef{dir: dir, file: p, test: test, pos: n.Pos()})
				}
			}
			return true
		})
	})
	if len(decls) == 0 {
		t.Fatal("found no functions under internal/; is the test running from the module root?")
	}

	var uncalled []string
	for _, fd := range decls {
		called := false
		for _, r := range refs[fd.name] {
			if r.file == fd.file && r.pos >= fd.start && r.pos < fd.end {
				continue // its own declaration, recursion included
			}
			if r.test && r.dir == fd.dir {
				continue // its own package's tests
			}
			if !fd.method && r.dir != fd.dir && r.pkg != "fidelius/"+fd.dir {
				continue // another package's identifier of the same name
			}
			called = true
			break
		}
		if !called {
			uncalled = append(uncalled, fd.name+" ("+fd.pos.String()+")")
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("function %s has no caller outside its own declaration and its own package's tests", u)
	}
}
