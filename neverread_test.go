//go:build neverread

package distws

import (
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Deps         []string
}

// TestNoFieldIsNeverRead type-checks the module from source, tests
// included, and fails on every struct field declared outside _test.go
// files that no code reads: state that is built, copied or encoded but
// never consulted. Assigning a field, incrementing it or naming it in a
// composite literal is not a read; selecting its value anywhere else,
// a test included, is. Fields with a json tag are exempt (encoding/json
// reads them by reflection), and so are embedded fields, which promote
// methods and fields without being selected by name. It fails the same
// way on every package-level const or var declared outside _test.go
// files that no code reads: assigning or incrementing the var is not a
// read, naming it anywhere else is.
//
// In the same pass it fails on every such field that no code outside
// _test.go files sets: an input only tests give, zero in every program.
// A field is set when it is an assignment or increment target, when its
// address is taken or a method is called on it, when a composite literal
// names it or fills it by position, and when it is selected on the way
// to any of those (x.f.g = v sets f as well as g). A default is not a
// set: a constant assigned to a field in the body of an if that compares
// that same field with a constant (`if o.N <= 0 { o.N = defaultN }`)
// fills in a field its callers left unset. The fields tests set on
// purpose, each with its reason, are listed in neverSetKept, and the
// never-set list must equal that file. Run with `make never-read`.
func TestNoFieldIsNeverRead(t *testing.T) {
	// The standard library comes from its export data, for the tests'
	// imports too; the module's packages are checked from source.
	out, err := exec.Command("go", "list", "-deps", "-test", "-export",
		"-f", "{{if .Standard}}{{.ImportPath}} {{.Export}}{{end}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			exports[path] = file
		}
	}
	out, err = exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var module []*listedPackage
	for dec := json.NewDecoder(strings.NewReader(string(out))); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		if !p.Standard {
			module = append(module, p) // -deps lists dependencies first
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	s := &fieldScan{fset: fset, std: std, plain: map[string]*types.Package{}, declared: map[string]string{}, values: map[string]string{}, read: map[string]bool{}, set: map[string]bool{}}
	for _, p := range module {
		s.plain[p.ImportPath] = s.check(t, p.ImportPath, p.Dir, p.GoFiles, nil, true)
	}
	for _, p := range module {
		if len(p.TestGoFiles)+len(p.XTestGoFiles) == 0 {
			continue
		}
		under := s.check(t, p.ImportPath, p.Dir, append(slices.Clip(p.GoFiles), p.TestGoFiles...), nil, false)
		if len(p.XTestGoFiles) == 0 {
			continue
		}
		// As `go test` builds it, the external test package sees its
		// package under test with the in-package test files
		// (export_test.go) compiled in, and so does every module package
		// it imports that imports the package under test.
		over := map[string]*types.Package{p.ImportPath: under}
		for _, q := range module {
			if slices.Contains(q.Deps, p.ImportPath) {
				over[q.ImportPath] = s.check(t, q.ImportPath, q.Dir, q.GoFiles, over, false)
			}
		}
		s.check(t, p.ImportPath+"_test", p.Dir, p.XTestGoFiles, over, false)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var never []string
	unset := map[string]bool{} // file: Type.Field
	for pos, name := range s.declared {
		rel := pos
		if r, err := filepath.Rel(wd, pos); err == nil {
			rel = r
		}
		if !s.read[pos] {
			never = append(never, rel+": "+name)
		}
		if !s.set[pos] {
			file, _, _ := strings.Cut(rel, ":")
			_, field, _ := strings.Cut(name, ".")
			unset[file+": "+field] = true
		}
	}
	for pos, name := range s.values {
		if !s.read[pos] {
			rel := pos
			if r, err := filepath.Rel(wd, pos); err == nil {
				rel = r
			}
			never = append(never, rel+": "+name)
		}
	}
	sort.Strings(never)
	for _, f := range never {
		t.Errorf("never read: %s", f)
	}

	kept, err := os.ReadFile(neverSetKept)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(kept), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		file, rest, _ := strings.Cut(line, ": ")
		field, reason, _ := strings.Cut(rest, " ")
		switch key := file + ": " + field; {
		case reason == "":
			t.Errorf("%s:%d: %q gives no reason", neverSetKept, i+1, key)
		case !unset[key]:
			t.Errorf("%s:%d: %s is set outside tests, or gone: remove the line", neverSetKept, i+1, key)
		default:
			delete(unset, key)
		}
	}
	var stray []string
	for f := range unset {
		stray = append(stray, f)
	}
	sort.Strings(stray)
	for _, f := range stray {
		t.Errorf("never set outside tests: %s (set it, delete it, or add it to %s with its reason)", f, neverSetKept)
	}
}

// neverSetKept lists the fields only tests set, on purpose: one
// `file: Type.Field reason` per line.
const neverSetKept = "testdata/neverset_kept.txt"

// fieldScan holds what the scan has seen: every field and package-level
// const or var declared outside tests, every one of them read and every
// field set outside tests, all by declaration position.
type fieldScan struct {
	fset     *token.FileSet
	std      types.Importer
	plain    map[string]*types.Package // module packages without their tests
	declared map[string]string         // position -> package.Type.Field
	values   map[string]string         // position -> package.Name of a package-level const or var
	read     map[string]bool           // position of a read field, const or var
	set      map[string]bool           // position of a field set outside tests
}

// check type-checks one package from files in dir, records the fields it
// reads and, for a package without its tests (declare), the fields it
// declares and sets. over replaces module packages the files import.
func (s *fieldScan) check(t *testing.T, path, dir string, names []string, over map[string]*types.Package, declare bool) *types.Package {
	t.Helper()
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if p, ok := over[imp]; ok {
			return p, nil
		}
		if p, ok := s.plain[imp]; ok {
			return p, nil
		}
		return s.std.Import(imp)
	})}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	for _, f := range files {
		if declare {
			s.declare(f)
			s.sets(f, info)
		}
		s.reads(f, info)
	}
	return pkg
}

// declare records the named fields without a json tag of every struct
// type in f, and f's package-level consts and vars.
func (s *fieldScan) declare(f *ast.File) {
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && (gd.Tok == token.CONST || gd.Tok == token.VAR) {
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.Name != "_" {
						s.values[s.fset.Position(name.Pos()).String()] = f.Name.Name + "." + name.Name
					}
				}
			}
		}
	}
	typeName := map[*ast.StructType]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				typeName[st] = ts.Name.Name
			}
		}
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		owner := f.Name.Name + "." + cmp.Or(typeName[st], "struct{...}") + "."
		for _, fd := range st.Fields.List {
			if fd.Tag != nil {
				tag := strings.Trim(fd.Tag.Value, "`")
				if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
					continue
				}
			}
			for _, name := range fd.Names {
				if name.Name == "_" {
					continue
				}
				s.declared[s.fset.Position(name.Pos()).String()] = owner + name.Name
			}
		}
		return true
	})
}

// reads records every field f selects for its value — a selector that is
// not the target of an assignment or an increment — every field of a
// struct f compares with == or != or uses as a map key, and every
// package-level const or var f names other than as such a target.
func (s *fieldScan) reads(f *ast.File, info *types.Info) {
	written := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				s.compared(info.TypeOf(n.X))
			}
		case *ast.MapType:
			s.compared(info.TypeOf(n.Key))
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				written[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			written[ast.Unparen(n.X)] = true
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel != nil && sel.Kind() == types.FieldVal && !written[n] {
				s.read[s.fset.Position(sel.Obj().Pos()).String()] = true
			}
		case *ast.Ident:
			switch obj := info.Uses[n].(type) {
			case *types.Const, *types.Var:
				if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() && !written[n] {
					s.read[s.fset.Position(obj.Pos()).String()] = true
				}
			}
		}
		return true
	})
}

// sets records every field f sets: see TestNoFieldIsNeverRead.
func (s *fieldScan) sets(f *ast.File, info *types.Info) {
	defaults := map[*ast.AssignStmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			markDefaults(n, info, defaults)
		case *ast.AssignStmt:
			if defaults[n] {
				break
			}
			for _, lhs := range n.Lhs {
				s.setPath(lhs, info)
			}
		case *ast.IncDecStmt:
			s.setPath(n.X, info)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				s.setPath(n.X, info)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				s.setPath(n.X, info)
			}
		case *ast.CompositeLit:
			st, ok := info.TypeOf(n).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok {
					s.set[s.fset.Position(st.Field(i).Pos()).String()] = true
					continue
				}
				for j := 0; j < st.NumFields(); j++ {
					if st.Field(j).Name() == kv.Key.(*ast.Ident).Name {
						s.set[s.fset.Position(st.Field(j).Pos()).String()] = true
					}
				}
			}
		}
		return true
	})
}

// markDefaults marks each assignment in the body of n that gives a field
// a constant when n's condition compares that same field with a constant.
func markDefaults(n *ast.IfStmt, info *types.Info, defaults map[*ast.AssignStmt]bool) {
	cond, ok := ast.Unparen(n.Cond).(*ast.BinaryExpr)
	if !ok || !slices.Contains([]token.Token{token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ}, cond.Op) {
		return
	}
	constant := func(e ast.Expr) bool { return info.Types[e].Value != nil }
	field := cond.X
	switch {
	case constant(cond.X):
		field = cond.Y
	case !constant(cond.Y):
		return
	}
	if sel, ok := ast.Unparen(field).(*ast.SelectorExpr); !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.FieldVal {
		return
	}
	for _, st := range n.Body.List {
		a, ok := st.(*ast.AssignStmt)
		if ok && a.Tok == token.ASSIGN && len(a.Lhs) == 1 && constant(a.Rhs[0]) &&
			types.ExprString(a.Lhs[0]) == types.ExprString(field) {
			defaults[a] = true
		}
	}
}

// setPath records as set every field selected in the target expression
// e, from the outermost in: x.f[i].g sets g and f.
func (s *fieldScan) setPath(e ast.Expr, info *types.Info) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				s.set[s.fset.Position(sel.Obj().Pos()).String()] = true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// compared records every field of a struct compared as a whole, nested
// structs and arrays of them included.
func (s *fieldScan) compared(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		s.compared(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			s.read[s.fset.Position(u.Field(i).Pos()).String()] = true
			s.compared(u.Field(i).Type())
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
