// Reachability guard: every non-test function, method and package-level
// type, const or var of the module must be reached from a shipping
// root, or be named in testdata/deadcode/allowlist.txt with a reason.
// The check type-checks the module's packages without their test files
// (go/types; the standard library through the "source" importer), and
// the non-test files of the benchmark harness in e2ebench/ against
// them, then computes a reachability fixpoint.
//
// Roots: main and init functions; the initialisers of blank package
// variables (var _ = ...); a named variable's initialiser once the
// variable is reached; every method through which its type implements
// an interface, once the type is reached. Whatever only e2ebench's
// references reach is reported as kept by the benchmark, not as dead.
package dexa

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
)

func TestDeadCode(t *testing.T) {
	if raceEnabled {
		t.Skip("static analysis; the race detector adds nothing")
	}
	allow, err := readAllowlist("testdata/deadcode/allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	found, err := findUnreached(".", "e2ebench", allowNames(allow))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkAllowlist(".", found, allow) {
		t.Error(p)
	}
}

// TestDeadCodeRules checks the guard's rules on the small module in
// testdata/deadcode/tiny, whose lib package has one declaration per
// rule and whose bench directory plays e2ebench.
func TestDeadCodeRules(t *testing.T) {
	if raceEnabled {
		t.Skip("static analysis; the race detector adds nothing")
	}
	const root = "testdata/deadcode/tiny"
	allow := []allowEntry{
		{name: "lib.Orphan", reason: "e2ebench", line: 1},
		{name: "lib.OnlyBench", reason: "e2ebench", line: 2},
		{name: "lib.Used", reason: "e2ebench", line: 3},
		{name: "lib.Gone", reason: "e2ebench", line: 4},
	}
	found, err := findUnreached(root, "bench", allowNames(allow))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, u := range found {
		switch {
		case u.keptBy != "":
			got[u.name] = "kept by " + u.keptBy
		case u.bench:
			got[u.name] = "bench"
		default:
			got[u.name] = "dead"
		}
	}
	want := map[string]string{
		// Reached only from an unreachable function: reported, and
		// covered by the entry of the function that reaches it.
		"lib.Orphan":       "dead",
		"lib.orphanHelper": "kept by lib.Orphan",
		// Referenced only from a _test.go file.
		"lib.OnlyTested": "dead",
		// A method that implements an interface goes with its type:
		// Named.String is reached, Ghost's type and method are not.
		"lib.Ghost":        "dead",
		"lib.Ghost.String": "dead",
		// Referenced only by the harness: kept by the benchmark, not
		// dead; so is what only that reaches.
		"lib.OnlyBench":   "bench",
		"lib.benchHelper": "kept by lib.OnlyBench",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unreached = %v\nwant %v", got, want)
	}

	problems := strings.Join(checkAllowlist(root, found, allow), "\n")
	for _, p := range []string{
		"allowlist line 1: lib.Orphan: e2ebench no longer reaches it",
		"allowlist line 3: lib.Used: reached from a shipping root or deleted",
		"allowlist line 4: lib.Gone: reached from a shipping root or deleted",
		"method lib.Ghost.String (1 lines): no root reaches it; delete it",
		"func lib.OnlyTested (2 lines): no root reaches it; delete it",
	} {
		if !strings.Contains(problems, p) {
			t.Errorf("problems lack %q:\n%s", p, problems)
		}
	}
	for _, p := range []string{"lib.OnlyBench", "lib.orphanHelper", "lib.benchHelper"} {
		if strings.Contains(problems, p) {
			t.Errorf("problems name %s, which an entry covers:\n%s", p, problems)
		}
	}
}

// unreached is one declaration that no shipping root reaches.
type unreached struct {
	name  string // package path relative to the module, then the declared name: internal/core.Generator.Sweep
	kind  string // func, method, type, const or var
	pos   token.Position
	lines int  // with its doc comment
	bench bool // reached from what the benchmark harness references
	// keptBy names the allowlisted declaration it is reached through.
	keptBy string
}

func (u unreached) String() string {
	where := "no root reaches it"
	if u.bench {
		where = "only e2ebench reaches it"
	}
	return fmt.Sprintf("%s:%d: %s %s (%d lines): %s", u.pos.Filename, u.pos.Line, u.kind, u.name, u.lines, where)
}

// allowEntry is one line of the allowlist: a name and its reason.
type allowEntry struct {
	name, reason, arg string
	line              int
}

func allowNames(allow []allowEntry) map[string]bool {
	names := make(map[string]bool, len(allow))
	for _, e := range allow {
		names[e.name] = true
	}
	return names
}

// readAllowlist reads "name reason [arg]" lines; blank lines and lines
// starting with # are skipped.
func readAllowlist(path string) ([]allowEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []allowEntry
	for i, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("%s:%d: want \"name reason [arg]\", got %q", path, i+1, line)
		}
		out = append(out, allowEntry{name: fields[0], reason: fields[1], arg: strings.Join(fields[2:], ""), line: i + 1})
	}
	return out, nil
}

// checkAllowlist returns one problem per unreached declaration that
// the allowlist does not name with a fitting reason, and one per entry
// that names nothing unreached: the list may only shrink. The reasons
// are a fixed set:
//
//	e2ebench  kept only by the benchmark harness (ROADMAP item 8)
//	item N    wired by open ROADMAP item N, whose text names it
//	paper     a paper technique with a note in DESIGN.md
//	fixture   a fixture that tests in two or more packages share
//
// A declaration reached only through an allowlisted one needs no entry
// of its own.
func checkAllowlist(root string, found []unreached, allow []allowEntry) []string {
	var problems []string
	byName := make(map[string]unreached, len(found))
	for _, u := range found {
		byName[u.name] = u
	}
	listed := make(map[string]bool, len(allow))
	var docs map[string]string
	doc := func(file string) string {
		if docs == nil {
			docs = make(map[string]string)
		}
		if s, ok := docs[file]; ok {
			return s
		}
		b, _ := os.ReadFile(filepath.Join(root, file))
		docs[file] = string(b)
		return docs[file]
	}
	for _, e := range allow {
		where := fmt.Sprintf("allowlist line %d: %s", e.line, e.name)
		if listed[e.name] {
			problems = append(problems, where+": listed twice")
		}
		listed[e.name] = true
		u, ok := byName[e.name]
		if !ok {
			problems = append(problems, where+": reached from a shipping root or deleted; remove the entry")
			continue
		}
		// short is the declared name, with its receiver for a method.
		short := e.name[strings.LastIndex(e.name, "/")+1:]
		short = short[strings.Index(short, ".")+1:]
		switch e.reason {
		case "e2ebench":
			if !u.bench {
				problems = append(problems, where+": e2ebench no longer reaches it; delete it")
			}
		case "item":
			if u.bench {
				problems = append(problems, where+": e2ebench reaches it; give the reason e2ebench")
			}
			if !regexp.MustCompile(`^[0-9]+$`).MatchString(e.arg) {
				problems = append(problems, where+": reason item needs the ROADMAP item number")
			} else if item := roadmapItem(doc("ROADMAP.md"), e.arg); item == "" {
				problems = append(problems, where+": ROADMAP.md has no open item "+e.arg)
			} else if !strings.Contains(item, short) {
				problems = append(problems, where+": ROADMAP.md item "+e.arg+" does not name "+short)
			}
		case "paper":
			if u.bench {
				problems = append(problems, where+": e2ebench reaches it; give the reason e2ebench")
			}
			if !strings.Contains(doc("DESIGN.md"), short) {
				problems = append(problems, where+": DESIGN.md has no note on "+short)
			}
		case "fixture":
			if u.bench {
				problems = append(problems, where+": e2ebench reaches it; give the reason e2ebench")
			}
			if n := testPackagesCalling(root, e.name); n < 2 {
				problems = append(problems, fmt.Sprintf("%s: tests in %d package(s) use it, a shared fixture needs two", where, n))
			}
		default:
			problems = append(problems, where+": reason "+e.reason+" is none of e2ebench, item N, paper or fixture")
		}
	}
	for _, u := range found {
		if !listed[u.name] && u.keptBy == "" {
			problems = append(problems, u.String()+"; delete it, move it into a _test.go file, or wire it into a shipping path")
		}
	}
	return problems
}

// roadmapItem returns the text of the numbered item n of the open
// items ("n. **Title** ..." up to the next numbered item), or "".
func roadmapItem(roadmap, n string) string {
	loc := regexp.MustCompile(`(?m)^` + n + `\. \*\*`).FindStringIndex(roadmap)
	if loc == nil {
		return ""
	}
	rest := roadmap[loc[1]:]
	if end := regexp.MustCompile(`(?m)^[0-9]+\. \*\*`).FindStringIndex(rest); end != nil {
		rest = rest[:end[0]]
	}
	return rest
}

// testPackagesCalling counts the directories whose _test.go files call
// the declaration name names: a method as ".Name(", a function as
// "Name(" in its own package and "pkg.Name(" elsewhere.
func testPackagesCalling(root, name string) int {
	slash := strings.LastIndex(name, "/") + 1
	dot := slash + strings.Index(name[slash:], ".")
	pkgDir, decl := filepath.Join(root, filepath.FromSlash(name[:dot])), name[dot+1:]
	own := regexp.MustCompile(`\b` + regexp.QuoteMeta(decl) + `\(`)
	other := regexp.MustCompile(`\b` + regexp.QuoteMeta(name[slash:dot]+"."+decl) + `\(`)
	if i := strings.LastIndex(decl, "."); i >= 0 {
		own = regexp.MustCompile(`\.` + regexp.QuoteMeta(decl[i+1:]) + `\(`)
		other = own
	}
	dirs := make(map[string]bool)
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if !strings.HasSuffix(path, "_test.go") || dirs[dir] {
			return nil
		}
		re := other
		if dir == pkgDir {
			re = own
		}
		if b, err := os.ReadFile(path); err == nil && re.Match(b) {
			dirs[dir] = true
		}
		return nil
	})
	return len(dirs)
}

func skipDir(name string) bool {
	return name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// findUnreached loads the module rooted at root and the harness in
// root/bench, and lists every declaration no shipping root reaches,
// sorted by name. A declaration reached only through one named in
// allowed records that name in keptBy.
func findUnreached(root, bench string, allowed map[string]bool) ([]unreached, error) {
	// The run allocates about 700 MB, nearly all of it short-lived
	// syntax and type-checker state of the standard library; a laxer
	// collector takes a fifth off its time for a heap of about 180 MB.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	benchDir := filepath.Join(root, bench)
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (skipDir(d.Name()) || path == benchDir) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := l.modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.load(path, dir); err != nil {
			return nil, err
		}
	}
	harness, err := l.check(l.modPath+"/"+bench, benchDir)
	if err != nil {
		return nil, err
	}
	if harness == nil {
		return nil, fmt.Errorf("%s: no non-test Go files", benchDir)
	}

	g := newGraph(l)
	var shipping []types.Object
	for _, c := range l.ordered {
		shipping = append(shipping, g.addPackage(c)...)
	}
	for _, n := range g.named {
		g.impl[n.Obj()] = g.implementing(n)
	}
	reached := g.reach(shipping, nil)
	var benchRoots []types.Object
	for _, obj := range harness.info.Uses {
		if o := g.node(obj); o != nil {
			benchRoots = append(benchRoots, o)
		}
	}
	byBench := g.reach(benchRoots, reached)

	keptBy := make(map[types.Object]string)
	for obj, d := range g.decls {
		if reached[obj] || !allowed[d.name] {
			continue
		}
		for o := range g.reach([]types.Object{obj}, reached) {
			if o != obj && !reached[o] && keptBy[o] == "" {
				keptBy[o] = d.name
			}
		}
	}
	var out []unreached
	for obj, d := range g.decls {
		if reached[obj] {
			continue
		}
		d.bench = byBench[obj]
		d.keptBy = keptBy[obj]
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// loader type-checks the module's packages from source, without test
// files, resolving the standard library through the source importer.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.Importer
	pkgs    map[string]*checked
	ordered []*checked
}

type checked struct {
	path  string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(root string) (*loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(mod)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    root,
		modPath: string(m[1]),
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*checked),
	}, nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.Import(path)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	c, err := l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("%s: no non-test Go files", path)
	}
	return c.pkg, nil
}

// load type-checks the module package at dir once; a directory without
// non-test Go files gives nil.
func (l *loader) load(path, dir string) (*checked, error) {
	if c, ok := l.pkgs[path]; ok {
		return c, nil
	}
	c, err := l.check(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = c
	if c != nil {
		l.ordered = append(l.ordered, c)
	}
	return c, nil
}

func (l *loader) check(path, dir string) (*checked, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	c := &checked{path: path, info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: l}
	if c.pkg, err = conf.Check(path, l.fset, c.files, c.info); err != nil {
		return nil, err
	}
	return c, nil
}

// graph holds the reference edges between the module's declarations.
type graph struct {
	l     *loader
	edges map[types.Object][]types.Object
	decls map[types.Object]unreached
	// impl lists, for a named type, the methods through which it
	// implements some interface; they are reached with the type.
	impl map[types.Object][]types.Object
	// ifaces are the non-empty, non-generic interfaces of the program:
	// every named one in the module and the packages it imports,
	// transitively, and every interface literal of the module.
	ifaces []*types.Interface
	named  []*types.Named
}

func newGraph(l *loader) *graph {
	g := &graph{
		l:     l,
		edges: make(map[types.Object][]types.Object),
		decls: make(map[types.Object]unreached),
		impl:  make(map[types.Object][]types.Object),
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				g.addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	g.addIface(types.Universe.Lookup("error").Type())
	visit(bodyIfaces())
	for _, c := range l.ordered {
		visit(c.pkg)
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					g.addIface(c.info.TypeOf(it))
				}
				return true
			})
		}
	}
	return g
}

// bodyIfaces holds the interfaces the standard library asserts inside
// function bodies, which the source importer does not type-check:
// errors.Is, As and Unwrap look for these methods.
func bodyIfaces() *types.Package {
	const src = `package body
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "body.go", src, 0)
	if err != nil {
		panic(err)
	}
	p, err := new(types.Config).Check("body", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	return p
}

func (g *graph) addIface(t types.Type) {
	if t == nil {
		return
	}
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		g.ifaces = append(g.ifaces, it)
	}
}

// inModule reports whether obj is declared in a module package.
func (g *graph) inModule(obj types.Object) bool {
	p := obj.Pkg()
	if p == nil {
		return false
	}
	c, ok := g.l.pkgs[p.Path()]
	return ok && c != nil && c.pkg == p
}

// node maps a used object to its declaration's graph node: the origin
// of a generic instance, and nil for anything that is not a
// package-level object or concrete method of the module.
func (g *graph) node(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if sig := obj.Type().(*types.Signature); sig.Recv() != nil {
			if types.IsInterface(sig.Recv().Type()) {
				return nil
			}
			if !g.inModule(obj) {
				return nil
			}
			return obj
		}
	case *types.Var:
		obj = o.Origin()
	case *types.TypeName, *types.Const:
	default:
		return nil
	}
	if !g.inModule(obj) || obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return obj
}

// addPackage records c's declarations and their edges, and returns its
// unconditional roots.
func (g *graph) addPackage(c *checked) []types.Object {
	var roots []types.Object
	rel := strings.TrimPrefix(strings.TrimPrefix(c.path, g.l.modPath), "/")
	if rel == "" {
		rel = "."
	}
	uses := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := g.node(c.info.Uses[id]); o != nil {
					out = append(out, o)
				}
			}
			return true
		})
		return out
	}
	declare := func(obj types.Object, kind, name string, doc *ast.CommentGroup, n ast.Node, refs []types.Object) {
		g.edges[obj] = append(g.edges[obj], refs...)
		start := n.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		g.decls[obj] = unreached{
			name:  rel + "." + name,
			kind:  kind,
			pos:   g.l.fset.Position(n.Pos()),
			lines: g.l.fset.Position(n.End()).Line - g.l.fset.Position(start).Line + 1,
		}
	}
	for _, f := range c.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := c.info.Defs[d.Name]
				refs := uses(d)
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && c.pkg.Name() == "main") {
					roots = append(roots, refs...)
					continue
				}
				kind, name := "func", d.Name.Name
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					base := recv.Type()
					if p, ok := base.(*types.Pointer); ok {
						base = p.Elem()
					}
					kind, name = "method", base.(*types.Named).Obj().Name()+"."+name
				}
				declare(obj, kind, name, d.Doc, d, refs)
			case *ast.GenDecl:
				var lastValues []types.Object // a const spec without values repeats the previous spec's
				for _, spec := range d.Specs {
					doc := d.Doc
					if d.Lparen.IsValid() {
						doc = nil
					}
					var n ast.Node = spec
					if doc != nil {
						n = d
					}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						obj := c.info.Defs[s.Name]
						declare(obj, "type", s.Name.Name, doc, n, uses(s))
						if named, ok := obj.Type().(*types.Named); ok && !types.IsInterface(named) {
							g.named = append(g.named, named)
						}
					case *ast.ValueSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						refs := uses(s)
						if d.Tok == token.CONST {
							if s.Values == nil {
								refs = append(refs, lastValues...)
							} else {
								lastValues = refs
							}
						}
						for _, id := range s.Names {
							if id.Name == "_" {
								roots = append(roots, refs...)
								continue
							}
							declare(c.info.Defs[id], d.Tok.String(), id.Name, doc, n, refs)
						}
					}
				}
			}
		}
	}
	return roots
}

// implementing lists the methods through which named implements some
// interface of the program, found by method name first. A generic type
// is matched by method names alone: its methods are kept if their names
// cover an interface.
func (g *graph) implementing(named *types.Named) []types.Object {
	ptr := types.NewPointer(named)
	ms := types.NewMethodSet(ptr)
	if ms.Len() == 0 {
		return nil
	}
	generic := named.TypeParams().Len() > 0
	has := make(map[string]bool, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		has[ms.At(i).Obj().Name()] = true
	}
	keep := make(map[string]bool)
	for _, it := range g.ifaces {
		covered := true
		for i := 0; i < it.NumMethods(); i++ {
			if !has[it.Method(i).Name()] {
				covered = false
				break
			}
		}
		if !covered || !generic && !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			keep[it.Method(i).Name()] = true
		}
	}
	var out []types.Object
	for i := 0; i < ms.Len(); i++ {
		if keep[ms.At(i).Obj().Name()] {
			if o := g.node(ms.At(i).Obj()); o != nil {
				out = append(out, o)
			}
		}
	}
	return out
}

// reach returns everything roots reach, on top of from.
func (g *graph) reach(roots []types.Object, from map[types.Object]bool) map[types.Object]bool {
	seen := make(map[types.Object]bool, len(g.decls))
	for o := range from {
		seen[o] = true
	}
	work := append([]types.Object(nil), roots...)
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[o] {
			continue
		}
		seen[o] = true
		work = append(work, g.edges[o]...)
		work = append(work, g.impl[o]...)
	}
	return seen
}
