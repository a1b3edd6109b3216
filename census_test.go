package centaur

// The reachability census: which declarations of internal/ no program
// reaches, and which config-struct fields no non-test code sets. It uses
// the standard library only: go/parser and go/types over the module's
// source, and the gc importer over `go list -export` data for the
// standard library's packages.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// censusAllow lists what the census flags on purpose, each with its
// reason. A name is package.Decl, package.Type.Method or
// package.Type.Field; "package.*" covers a whole package. An entry the
// census no longer flags is an error too, so the list cannot go stale.
var censusAllow = map[string]string{
	"prototest.*": "the protocols' shared test harness; only _test.go files import it (TestCensus checks)",

	"experiments.RunFlips": "the flip runner of the root ablation benchmarks (bench_test.go, DESIGN.md §6)",
	"wire.TransportDataSize": "sizes transport frames once the transport leaves sim (ROADMAP item 3); " +
		"TestTransportSizesMatchWire pins it against sim's copy until then",
	"wire.TransportAckSize": "as TransportDataSize",

	"centaur.Config.DisableRootCause": "the root-cause ablation (DESIGN.md §6, BenchmarkAblationRootCause)",
}

// TestCensus fails on every declaration of internal/ that no program
// reaches, every config knob nothing sets (see unsetKnobs), and every
// censusAllow entry that is no longer flagged. To keep a flagged name,
// add it to censusAllow with the caller it is kept for.
func TestCensus(t *testing.T) {
	c, err := loadCensus(".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	flagged, err := c.flagged()
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range censusCheck(flagged, censusAllow) {
		t.Error(msg)
	}
	for _, f := range c.nonTestImporters("internal/prototest") {
		t.Errorf("%s imports internal/prototest outside a _test.go file", f)
	}
}

// TestCensusFixture runs the census on testdata/census, whose dead code
// is known, so the guard is known to bite.
func TestCensusFixture(t *testing.T) {
	c, err := loadCensus(filepath.Join("testdata", "census"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(c.unreachable(), " ")
	if want := "lib.Dead lib.NewRing lib.ring lib.ring.spin"; got != want {
		t.Errorf("unreachable = %q, want %q", got, want)
	}
	knobs, err := c.unsetKnobs()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(knobs, " "), "lib.Config.Defaulted lib.Config.Hidden lib.Config.orphan"; got != want {
		t.Errorf("unset knobs = %q, want %q", got, want)
	}
	flagged, err := c.flagged()
	if err != nil {
		t.Fatal(err)
	}
	if msgs := censusCheck(flagged, nil); len(msgs) != 7 {
		t.Errorf("with no allowlist, %d messages, want one per flagged name: %q", len(msgs), msgs)
	}
	msgs := censusCheck(flagged, map[string]string{"lib.*": "kept", "lib.Gone": "stale"})
	if len(msgs) != 1 || !strings.Contains(msgs[0], "lib.Gone") {
		t.Errorf("stale allowlist entry not reported: %q", msgs)
	}
	if got := c.nonTestImporters("internal/testonly"); len(got) != 1 || !strings.HasSuffix(got[0], "leak.go") {
		t.Errorf("non-test importers of internal/testonly = %q, want [.../leak.go]", got)
	}
}

// flagged maps every name the census flags to why.
func (c *census) flagged() (map[string]string, error) {
	out := map[string]string{}
	for _, name := range c.unreachable() {
		out[name] = "no program reaches it"
	}
	knobs, err := c.unsetKnobs()
	if err != nil {
		return nil, err
	}
	for _, name := range knobs {
		out[name] = "nothing sets this config field"
	}
	return out, nil
}

// censusCheck returns one message per flagged name the allowlist does
// not cover and one per allowlist entry that matched nothing.
func censusCheck(flagged, allow map[string]string) []string {
	used := map[string]bool{}
	var msgs []string
	for name, why := range flagged {
		key := name
		if _, ok := allow[key]; !ok {
			key = name[:strings.Index(name, ".")] + ".*"
		}
		if _, ok := allow[key]; ok {
			used[key] = true
			continue
		}
		msgs = append(msgs, name+": "+why)
	}
	for key := range allow {
		if !used[key] {
			msgs = append(msgs, "stale allowlist entry (no longer flagged): "+key)
		}
	}
	sort.Strings(msgs)
	return msgs
}

// censusPkg is one type-checked package of non-test files.
type censusPkg struct {
	censusDir
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// censusDir is one directory of a loaded module.
type censusDir struct {
	path string // on disk
	rel  string // relative to the first module, slash-separated
	root bool   // every declaration of its package is reached
}

type census struct {
	fset  *token.FileSet
	dirs  map[string]censusDir  // by import path, module packages only
	pkgs  map[string]*censusPkg // by import path, once checked
	order []*censusPkg
	std   types.Importer
}

// loadCensus type-checks the non-test files of every package in the
// given module directories. Packages of the first module are roots when
// they are its root package or under cmd/ or examples/; every package
// of a later module is a root.
func loadCensus(moduleDirs ...string) (*census, error) {
	c := &census{fset: token.NewFileSet(), dirs: map[string]censusDir{}, pkgs: map[string]*censusPkg{}}
	for i, dir := range moduleDirs {
		mod, err := modulePath(dir)
		if err != nil {
			return nil, err
		}
		err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != dir {
				if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			rel, err := filepath.Rel(moduleDirs[0], p)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			ip := mod
			if r, _ := filepath.Rel(dir, p); r != "." {
				ip += "/" + filepath.ToSlash(r)
			}
			c.dirs[ip] = censusDir{path: p, rel: rel,
				root: i > 0 || rel == "." || strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var paths []string
	for ip := range c.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	if err := c.loadStd(paths); err != nil {
		return nil, err
	}
	for _, ip := range paths {
		if _, err := c.check(ip); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return nil, err
		}
	}
	return c, nil
}

func modulePath(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(b)
	if m == nil {
		return "", fmt.Errorf("%s/go.mod: no module line", dir)
	}
	return string(m[1]), nil
}

// loadStd makes the standard-library importer, reading the export data
// that one `go list -export` run names for every package the modules
// import.
func (c *census) loadStd(paths []string) error {
	std := map[string]bool{}
	for _, ip := range paths {
		bp, err := build.ImportDir(c.dirs[ip].path, 0)
		if err != nil {
			continue
		}
		for _, imp := range append(bp.Imports, bp.TestImports...) {
			if _, ok := c.dirs[imp]; !ok && imp != "unsafe" {
				std[imp] = true
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range std {
		args = append(args, p)
	}
	goTool := filepath.Join(build.Default.GOROOT, "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		goTool = "go"
	}
	out, err := exec.Command(goTool, args...).Output()
	if err != nil {
		return fmt.Errorf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if p, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			export[p] = file
		}
	}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := export[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	return nil
}

// Import resolves module packages from source and the rest from export data.
func (c *census) Import(path string) (*types.Package, error) {
	if _, ok := c.dirs[path]; !ok {
		return c.std.Import(path)
	}
	p, err := c.check(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (c *census) check(ip string) (*censusPkg, error) {
	if p, ok := c.pkgs[ip]; ok {
		return p, nil
	}
	d := c.dirs[ip]
	bp, err := build.ImportDir(d.path, 0)
	if err != nil {
		return nil, err
	}
	p := &censusPkg{
		censusDir: d,
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(d.path, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: c}
	if p.types, err = conf.Check(ip, c.fset, p.files, p.info); err != nil {
		return nil, err
	}
	c.pkgs[ip] = p
	c.order = append(c.order, p)
	return p, nil
}

// checkWithTests type-checks a package again together with its
// in-package _test.go files, the only other code that can write its
// unexported fields.
func (c *census) checkWithTests(p *censusPkg) (*censusPkg, *types.Info, error) {
	bp, err := build.ImportDir(p.path, 0)
	if err != nil {
		return nil, nil, err
	}
	tp := &censusPkg{censusDir: p.censusDir, files: append([]*ast.File(nil), p.files...)}
	for _, name := range bp.TestGoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.path, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		tp.files = append(tp.files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: c}
	if tp.types, err = conf.Check(p.types.Path(), c.fset, tp.files, info); err != nil {
		return nil, nil, err
	}
	return tp, info, nil
}

// subject reports whether the census reports on a package's declarations.
func (p *censusPkg) subject() bool { return strings.HasPrefix(p.rel, "internal/") }

// decl is one package-level declaration or method and what it refers to.
type decl struct {
	pkg    *censusPkg
	obj    types.Object
	refs   []types.Object
	ifaces []*types.Interface // interface types written inside it
}

// unreachable returns the declarations of subject packages that no root
// reaches. A declaration is reached when a reached declaration refers
// to it; a method is also reached when its type is reached and the
// method implements a reached interface: one declared or written inside
// a reached declaration, error, or one exported by an imported standard
// library package.
func (c *census) unreachable() []string {
	decls := map[types.Object]*decl{}
	var all []*decl
	reached := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if o != nil && !reached[o] {
			reached[o] = true
			queue = append(queue, o)
		}
	}
	for _, p := range c.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				for _, dl := range p.decls(d) {
					decls[dl.obj], all = dl, append(all, dl)
					if p.root || isInit(d) {
						mark(dl.obj)
					}
				}
			}
		}
	}

	var named []*types.Named
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seenStd := map[*types.Package]bool{}
	for _, p := range c.order {
		for _, imp := range p.types.Imports() {
			if _, ok := c.dirs[imp.Path()]; ok || seenStd[imp] {
				continue
			}
			seenStd[imp] = true
			for _, name := range imp.Scope().Names() {
				if o := imp.Scope().Lookup(name); o.Exported() {
					if it, ok := o.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						if _, isTN := o.(*types.TypeName); isTN {
							ifaces = append(ifaces, it)
						}
					}
				}
			}
		}
	}
	bind := func(n *types.Named, it *types.Interface) {
		ptr := types.NewPointer(n)
		if n.TypeParams().Len() == 0 && !types.Implements(n, it) && !types.Implements(ptr, it) {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if o, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); o != nil {
				if fn, ok := o.(*types.Func); ok {
					mark(fn.Origin())
				}
			}
		}
	}
	addIface := func(it *types.Interface) {
		if it.NumMethods() == 0 {
			return
		}
		ifaces = append(ifaces, it)
		for _, n := range named {
			bind(n, it)
		}
	}
	var markType func(t types.Type)
	markType = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			mark(t.Origin().Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				markType(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			markType(t.Elem())
		case *types.Slice:
			markType(t.Elem())
		case *types.Array:
			markType(t.Elem())
		case *types.Chan:
			markType(t.Elem())
		case *types.Map:
			markType(t.Key())
			markType(t.Elem())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				markType(t.At(i).Type())
			}
		case *types.Signature:
			markType(t.Params())
			markType(t.Results())
		}
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		if o.Pkg() == nil {
			continue
		}
		if _, ok := c.pkgs[o.Pkg().Path()]; !ok {
			continue
		}
		markType(o.Type())
		if d := decls[o]; d != nil {
			for _, r := range d.refs {
				mark(r)
			}
			for _, it := range d.ifaces {
				addIface(it)
			}
		}
		if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok {
				if _, isIface := n.Underlying().(*types.Interface); !isIface {
					named = append(named, n)
					for _, it := range ifaces {
						bind(n, it)
					}
				}
			}
		}
	}

	var out []string
	for _, d := range all {
		if d.pkg.subject() && !reached[d.obj] && d.obj.Name() != "_" {
			out = append(out, d.pkg.types.Name()+"."+qualifiedName(d.obj))
		}
	}
	sort.Strings(out)
	return out
}

// qualifiedName is Name for a package-level object and Type.Name for a
// method.
func qualifiedName(o types.Object) string {
	if fn, ok := o.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			return t.(*types.Named).Obj().Name() + "." + fn.Name()
		}
	}
	return o.Name()
}

// decls returns the declarations one top-level declaration makes.
func (p *censusPkg) decls(d ast.Decl) []*decl {
	refs := func(nodes ...ast.Node) *decl {
		dl := &decl{pkg: p}
		for _, n := range nodes {
			if n == nil {
				continue
			}
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if o := p.info.Uses[n]; o != nil {
						dl.refs = append(dl.refs, origin(o))
					}
				case *ast.InterfaceType:
					if tv, ok := p.info.Types[n]; ok {
						dl.ifaces = append(dl.ifaces, tv.Type.Underlying().(*types.Interface))
					}
				}
				return true
			})
		}
		return dl
	}
	var out []*decl
	switch d := d.(type) {
	case *ast.FuncDecl:
		dl := refs(d)
		dl.obj = p.info.Defs[d.Name]
		out = append(out, dl)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				dl := refs(s)
				dl.obj = p.info.Defs[s.Name]
				out = append(out, dl)
			case *ast.ValueSpec:
				nodes := []ast.Node{}
				if s.Type != nil {
					nodes = append(nodes, s.Type)
				}
				for _, v := range s.Values {
					nodes = append(nodes, v)
				}
				for _, name := range s.Names {
					if o := p.info.Defs[name]; o != nil {
						dl := refs(nodes...)
						dl.obj = o
						out = append(out, dl)
					}
				}
			}
		}
	}
	return out
}

func isInit(d ast.Decl) bool {
	fd, ok := d.(*ast.FuncDecl)
	return ok && fd.Recv == nil && fd.Name.Name == "init"
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// configName matches the config structs whose fields the census treats
// as knobs.
var configName = regexp.MustCompile(`^(\w*Config|Options|Scenario)$`)

// unsetKnobs returns the config-struct fields of subject packages that
// nothing sets. An exported field counts as set when non-test code
// writes it, by composite-literal key or position, assignment,
// increment or &x.F; a write inside its own package counts, since
// experiments.CLI binds most fields to flags there. An unexported field
// (a test hook) counts as set when any code of its package writes it,
// in-package tests included. Neither counts a write made inside a
// method of the config struct itself: defaulting an unset field in
// validate() does not make it a knob anyone turns.
func (c *census) unsetKnobs() ([]string, error) {
	var out []string
	set := map[*types.Var]bool{}
	for _, p := range c.order {
		writes(p.files, p.info, set)
	}
	for _, p := range c.order {
		if !p.subject() {
			continue
		}
		for _, f := range configFields(p.types) {
			if f.v.Exported() && !set[f.v] {
				out = append(out, f.name)
			}
		}
		hooks := false
		for _, f := range configFields(p.types) {
			hooks = hooks || !f.v.Exported()
		}
		if !hooks {
			continue
		}
		tp, info, err := c.checkWithTests(p)
		if err != nil {
			return nil, err
		}
		tset := map[*types.Var]bool{}
		writes(tp.files, info, tset)
		for _, f := range configFields(tp.types) {
			if !f.v.Exported() && !tset[f.v] {
				out = append(out, f.name)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

type configField struct {
	v    *types.Var
	name string // package.Type.Field
}

// configFields returns the fields of a package's config structs.
func configFields(pkg *types.Package) []configField {
	var out []configField
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !configName.MatchString(name) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			out = append(out, configField{f, pkg.Name() + "." + name + "." + f.Name()})
		}
	}
	return out
}

// writes marks in set every struct field the files write, except a
// config struct's own fields written inside one of its methods.
func writes(files []*ast.File, info *types.Info, set map[*types.Var]bool) {
	var own map[*types.Var]bool // the receiver's fields, inside a config method
	write := func(v *types.Var) {
		if v != nil && !own[v.Origin()] {
			set[v.Origin()] = true
		}
	}
	writeExpr := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			v, _ := info.Uses[sel.Sel].(*types.Var)
			write(v)
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			own = nil
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				own = configReceiverFields(info.Defs[fd.Name])
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					tv, ok := info.Types[n]
					if !ok {
						break
					}
					st, ok := tv.Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, e := range n.Elts {
						v := st.Field(i)
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							v, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
						}
						write(v)
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						writeExpr(e)
					}
				case *ast.IncDecStmt:
					writeExpr(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						writeExpr(n.X)
					}
				}
				return true
			})
		}
	}
}

// configReceiverFields returns the fields of a method's receiver when
// the receiver is a config struct, else nil.
func configReceiverFields(o types.Object) map[*types.Var]bool {
	fn, ok := o.(*types.Func)
	if !ok {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || !configName.MatchString(n.Obj().Name()) {
		return nil
	}
	st, ok := n.Origin().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	own := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		own[st.Field(i)] = true
	}
	return own
}

// nonTestImporters returns the non-test files that import the package
// at rel (relative to the first module): for a test harness, none may.
func (c *census) nonTestImporters(rel string) []string {
	var out []string
	for _, p := range c.order {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if ip := strings.Trim(imp.Path.Value, `"`); c.dirs[ip].rel == rel {
					out = append(out, c.fset.Position(f.Package).Filename)
				}
			}
		}
	}
	return out
}
