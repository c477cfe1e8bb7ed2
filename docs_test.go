package distws

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// resolvedDocs are the documents whose make targets, tree paths and
// command flags must resolve.
var resolvedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	docFence     = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	docSpan      = regexp.MustCompile("`([^`]+)`")
	spanMake     = regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)
	fenceMake    = regexp.MustCompile(`(?m)^\s*make\s+([a-z][a-z0-9-]*)`)
	makefileRule = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	// A cmd/, internal/ or examples/ path, not the tail of a longer one
	// (distws/internal/... is an import path) but possibly after "./".
	treePath = regexp.MustCompile(`(?:^|[^\w/.-]|\./)((?:cmd|internal|examples)/[\w./-]*)`)

	// A distws-<name> command; a flag after it, once quoted arguments are
	// blanked and the line is cut at the first shell operator; and a flag
	// a command's main.go registers, on flag.CommandLine or on its own
	// FlagSet, named fs.
	docCommand  = regexp.MustCompile(`distws-([a-z]+)`)
	docQuoted   = regexp.MustCompile(`"[^"]*"|'[^']*'`)
	docFlag     = regexp.MustCompile(`(?:^|\s)--?([a-z][a-z0-9-]*)`)
	flagDefined = regexp.MustCompile(`\b(?:flag|fs)\.\w+\("([^"]+)"`)
	// sharedFlags are the flags every command gets from cliutil.
	sharedFlags = []string{"cpuprofile", "memprofile", "listen", "version"}
	// A span shaped like a BENCHMARK.json metric row: lowercase and
	// dotted; it names one when it also holds a '_' and its first
	// component is a row's.
	metricRow = regexp.MustCompile(`^([a-z][a-z0-9_]*)(?:\.[a-z0-9_]+)+$`)
	// A span that is one qualified Go identifier: pkg.Name or
	// pkg.Type.Member, Name exported, possibly called or instantiated.
	goIdent = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?(?:\(.*\)|\[.*\])?$`)
	// A pointer to a ROADMAP item by its number, which the ROADMAP
	// reassigns whenever it is re-anchored; a document names the item.
	roadmapItem = regexp.MustCompile(`ROADMAP(?:'s)?\s+items?\s+\d`)
)

// TestDocsResolve fails on a backticked `make <target>` (or a fenced
// `make <target>` line) that the Makefile does not define, and on a cmd/,
// internal/ or examples/ path that is not in the tree, in each of
// resolvedDocs, and on a -flag after a distws-<name> command (on a fenced
// line or in a backticked span) that cmd/distws-<name> does not register:
// a deleted command, package, target or flag cannot linger in the prose
// that tells a reader how to run things. A backticked span that names a
// benchmark metric row (see metricRow) must be a row of BENCHMARK.json,
// so a renamed or retired row cannot linger in the prose that quotes it,
// and a span that is a qualified Go identifier (see goIdent) whose package
// is distws or a directory under internal/ must name a declaration there.
// Neither those documents nor the Makefile nor a testdata/*_kept.txt list
// may point at a ROADMAP item by number (see roadmapItem).
func TestDocsResolve(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	kept, err := filepath.Glob(filepath.Join("testdata", "*_kept.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append(append([]string{"Makefile"}, kept...), resolvedDocs...) {
		data, err := os.ReadFile(filepath.FromSlash(doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range roadmapItem.FindAllIndex(data, -1) {
			t.Errorf("%s:%d: %q: name the ROADMAP item, not its number", doc, bytes.Count(data[:m[0]], []byte("\n"))+1, data[m[0]:m[1]])
		}
	}
	targets := map[string]bool{}
	for _, m := range makefileRule.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	rows, rowPrefixes := benchmarkRows(t)
	decls := newGoDecls(t)
	flags := map[string]map[string]bool{} // by command name, read on first use
	commandFlags := func(name string) map[string]bool {
		if f, ok := flags[name]; ok {
			return f
		}
		f := map[string]bool{}
		for _, s := range sharedFlags {
			f[s] = true
		}
		// A command that is not in the tree registers nothing.
		src, _ := os.ReadFile(filepath.Join("cmd", "distws-"+name, "main.go"))
		for _, m := range flagDefined.FindAllSubmatch(src, -1) {
			f[string(m[1])] = true
		}
		flags[name] = f
		return f
	}
	for _, doc := range resolvedDocs {
		data, err := os.ReadFile(filepath.FromSlash(doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		line := func(at int) int { return strings.Count(text[:at], "\n") + 1 }
		checkTarget := func(name string, at int) {
			if !targets[name] {
				t.Errorf("%s:%d: make %s: no such Makefile target", doc, line(at), name)
			}
		}
		// checkFlags checks the flags after each distws-<name> command of
		// s, which starts at offset at of text, up to the end of its line
		// or the next command.
		checkFlags := func(s string, at int) {
			cmds := docCommand.FindAllStringSubmatchIndex(s, -1)
			for i, m := range cmds {
				rest := s[m[1]:]
				if i+1 < len(cmds) {
					rest = s[m[1]:cmds[i+1][0]]
				}
				if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
					rest = rest[:nl]
				}
				rest = docQuoted.ReplaceAllString(rest, `""`)
				if op := strings.IndexAny(rest, "|&;<>)#"); op >= 0 {
					rest = rest[:op]
				}
				name := s[m[2]:m[3]]
				for _, f := range docFlag.FindAllStringSubmatch(rest, -1) {
					if !commandFlags(name)[f[1]] {
						t.Errorf("%s:%d: distws-%s -%s: no such flag", doc, line(at+m[0]), name, f[1])
					}
				}
			}
		}

		// Spans are matched in the prose alone, the fenced blocks blanked
		// out (offsets kept), so a fence's backticks cannot pair with one.
		// A fenced line that ends in a backslash continues on the next.
		prose := []byte(text)
		for _, f := range docFence.FindAllStringIndex(text, -1) {
			fence := text[f[0]:f[1]]
			for _, m := range fenceMake.FindAllStringSubmatchIndex(fence, -1) {
				checkTarget(fence[m[2]:m[3]], f[0]+m[2])
			}
			checkFlags(strings.ReplaceAll(fence, "\\\n", "  "), f[0])
			for i := f[0]; i < f[1]; i++ {
				if prose[i] != '\n' {
					prose[i] = ' '
				}
			}
		}
		for _, s := range docSpan.FindAllSubmatchIndex(prose, -1) {
			span := text[s[2]:s[3]]
			for _, m := range spanMake.FindAllStringSubmatchIndex(span, -1) {
				checkTarget(span[m[2]:m[3]], s[2]+m[2])
			}
			checkFlags(strings.ReplaceAll(span, "\n", " "), s[2])
			if m := metricRow.FindStringSubmatch(span); m != nil && strings.Contains(span, "_") &&
				rowPrefixes[m[1]] && !rows[span] {
				t.Errorf("%s:%d: %s: no such BENCHMARK.json row", doc, line(s[2]), span)
			}
			if m := goIdent.FindStringSubmatch(span); m != nil && decls.dirs[m[1]] != "" && !decls.resolves(m[1], m[2], m[3]) {
				t.Errorf("%s:%d: %s: no such Go declaration", doc, line(s[2]), span)
			}
		}

		for _, m := range treePath.FindAllStringSubmatchIndex(text, -1) {
			path := strings.TrimRight(text[m[2]:m[3]], "./")
			if !pathResolves(path) {
				t.Errorf("%s:%d: %s: not in the tree", doc, line(m[2]), path)
			}
		}
	}
}

// benchmarkRows reads the metric row names BENCHMARK.json declares, and
// the first dotted components of those names.
func benchmarkRows(t *testing.T) (rows, prefixes map[string]bool) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ Name string }
	var spec struct {
		EndToEnd []row `json:"end_to_end"`
		PerLayer []row `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	rows, prefixes = map[string]bool{}, map[string]bool{}
	for _, r := range append(spec.EndToEnd, spec.PerLayer...) {
		rows[r.Name] = true
		if first, _, dotted := strings.Cut(r.Name, "."); dotted {
			prefixes[first] = true
		}
	}
	return rows, prefixes
}

// pathResolves reports whether path exists, or names an identifier of an
// existing package directory ("internal/dag.Execute").
func pathResolves(path string) bool {
	if _, err := os.Stat(filepath.FromSlash(path)); err == nil {
		return true
	}
	dir, base := filepath.Split(path)
	pkg, _, ok := strings.Cut(base, ".")
	if !ok {
		return false
	}
	info, err := os.Stat(filepath.FromSlash(dir + pkg))
	return err == nil && info.IsDir()
}

// goDecls indexes the declarations of the module's packages by package
// name: distws for the root, the base name for a directory under
// internal/. A package is parsed on first use, its test files included.
type goDecls struct {
	t    *testing.T
	dirs map[string]string
	pkgs map[string]*pkgDecls
}

// pkgDecls is one package's index: its package-level names, each type's
// methods and fields (interface methods included), and the types whose
// members a type also has: the ones it embeds, or the one it aliases.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
	follow  map[string][]ast.Expr
}

func newGoDecls(t *testing.T) *goDecls {
	d := &goDecls{t: t, dirs: map[string]string{"distws": "."}, pkgs: map[string]*pkgDecls{}}
	err := filepath.WalkDir("internal", func(path string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			d.dirs[filepath.Base(dir)] = dir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// resolves reports whether pkg declares name, and, when member is not
// empty, whether the type name has that member.
func (d *goDecls) resolves(pkg, name, member string) bool {
	if p := d.load(pkg); p == nil || !p.top[name] {
		return false
	}
	return member == "" || d.hasMember(pkg, name, member, 0)
}

func (d *goDecls) hasMember(pkg, typ, member string, depth int) bool {
	p := d.load(pkg)
	if p == nil || depth > 8 {
		return false
	}
	if p.members[typ][member] {
		return true
	}
	for _, e := range p.follow[typ] {
		if q, name := typeName(pkg, e); name != "" && d.hasMember(q, name, member, depth+1) {
			return true
		}
	}
	return false
}

func (d *goDecls) load(pkg string) *pkgDecls {
	if p, ok := d.pkgs[pkg]; ok {
		return p
	}
	dir, ok := d.dirs[pkg]
	if !ok {
		return nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		d.t.Fatal(err)
	}
	p := &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}, follow: map[string][]ast.Expr{}}
	add := func(typ, member string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][member] = true
	}
	addFields := func(typ string, fields *ast.FieldList) {
		for _, f := range fields.List {
			for _, n := range f.Names {
				add(typ, n.Name)
			}
			if len(f.Names) == 0 { // embedded: its name is a member, its members too
				if _, name := typeName(pkg, f.Type); name != "" {
					add(typ, name)
				}
				p.follow[typ] = append(p.follow[typ], f.Type)
			}
		}
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			d.t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					p.top[decl.Name.Name] = true
				} else if _, recv := typeName(pkg, decl.Recv.List[0].Type); recv != "" {
					add(recv, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							p.top[n.Name] = true
						}
					case *ast.TypeSpec:
						name := spec.Name.Name
						p.top[name] = true
						switch ty := spec.Type.(type) {
						case *ast.StructType:
							addFields(name, ty.Fields)
						case *ast.InterfaceType:
							addFields(name, ty.Methods)
						default:
							if spec.Assign.IsValid() {
								p.follow[name] = append(p.follow[name], ty)
							}
						}
					}
				}
			}
		}
	}
	d.pkgs[pkg] = p
	return p
}

// typeName returns the package and name of the type e names, declared in
// pkg when unqualified, and an empty name for a type literal.
func typeName(pkg string, e ast.Expr) (string, string) {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return pkg, x.Name
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				return id.Name, x.Sel.Name
			}
			return "", ""
		default:
			return "", ""
		}
	}
}
