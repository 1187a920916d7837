package fidelius

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registerCalls are the telemetry.Registry methods that create a metric.
var registerCalls = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "RegisterFunc": true}

// handleReads are the metric-handle methods that read a value back.
var handleReads = map[string]bool{"Value": true, "Count": true, "Sum": true}

// metricReg is one registration of a metric under a literal name. handle
// is the telemetry.Metrics field the registration fills, if any.
type metricReg struct {
	name, file, handle string
	pos                token.Position
}

// TestEveryMetricHasAReader checks that every metric registered under a
// literal name in non-test code is read somewhere else: by a string
// literal equal to the name (or a labelled series "name{..."), in any Go
// file of the module, benchmark/ included, other than the registering
// one, or by a Value/Count/Sum read of its telemetry.Metrics handle. A
// metric nothing reads costs a hot-path update and explains nothing.
func TestEveryMetricHasAReader(t *testing.T) {
	fset := token.NewFileSet()
	var regs []metricReg
	regArgs := map[token.Pos]bool{}   // literal positions that are registration names
	literals := map[string][]string{} // literal value -> files using it
	handles := map[string][]string{}  // Metrics field -> files reading it

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				// newMetrics: Field: r.Counter("name"), ...
				if key, ok := n.Key.(*ast.Ident); ok && !isTest {
					if r, ok := registration(fset, n.Value, path); ok {
						r.handle = key.Name
						regs = append(regs, r)
						regArgs[n.Value.(*ast.CallExpr).Args[0].Pos()] = true
					}
				}
			case *ast.CallExpr:
				if r, ok := registration(fset, n, path); ok && !isTest && !regArgs[n.Args[0].Pos()] {
					regs = append(regs, r)
					regArgs[n.Args[0].Pos()] = true
				}
			case *ast.SelectorExpr:
				if inner, ok := n.X.(*ast.SelectorExpr); ok && handleReads[n.Sel.Name] {
					handles[inner.Sel.Name] = append(handles[inner.Sel.Name], path)
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || regArgs[lit.Pos()] {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil {
				literals[s] = append(literals[s], path)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 {
		t.Fatal("found no metric registrations; is the test running from the module root?")
	}

	elsewhere := func(files []string, own string) bool {
		for _, f := range files {
			if f != own {
				return true
			}
		}
		return false
	}
	var unread []string
	for _, r := range regs {
		if elsewhere(literals[r.name], r.file) || (r.handle != "" && elsewhere(handles[r.handle], r.file)) {
			continue
		}
		found := false
		for s, files := range literals {
			if strings.HasPrefix(s, r.name+"{") && elsewhere(files, r.file) {
				found = true
				break
			}
		}
		if !found {
			unread = append(unread, r.name+" ("+r.pos.String()+")")
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("metric %s has no reader outside the file that registers it", u)
	}
}

// registration reports whether e is a Counter/Gauge/Histogram/RegisterFunc
// call whose metric name is a string literal.
func registration(fset *token.FileSet, e ast.Expr, path string) (metricReg, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return metricReg{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !registerCalls[sel.Sel.Name] {
		return metricReg{}, false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return metricReg{}, false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return metricReg{}, false
	}
	return metricReg{name: name, file: path, pos: fset.Position(lit.Pos())}, true
}
