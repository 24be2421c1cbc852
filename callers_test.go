package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the declarations in internal/ that no non-test
// file references and that stay anyway, each with the test or bench
// that needs it and why. A key is a declaration ("pkg.Name" or
// "pkg.Type.Method") or a file, which covers every declaration in it.
var callerAllowlist = map[string]string{
	"internal/sfi/alternatives.go":    "BenchmarkAblation* and TestClaim_S3_*: the §3 architectures the paper measures SFI against",
	"netbricks.NullFilter":            "TestClaim_* and BenchmarkAblation*: Figure 2's null filter, the operator the crossing cost is measured on",
	"packet.Toeplitz":                 "packet's RSS tests: the bit-serial reference the table-driven hash is checked against",
	"packet.Packet.RSSHash":           "packet's RSS tests and the sharded-runner test: the one-shot hash a steered packet is checked against",
	"packet.Packet.VerifyIPChecksum":  "packet and maglev tests: the oracle every rewritten header is checked with",
	"maglev.Balancer.UpdateBackends":  "maglev's stickiness tests: DESIGN.md's claim that a backend change keeps flows",
	"linear.Ref":                      "BenchmarkAblationOwnedBorrow and linear's borrow tests: a borrow ends with Release",
	"mempool.Pool.Made":               "the dpdk, netport and packet pool tests: a port makes no mbuf header before one is drawn",
	"statestore.Store.Compact":        "statestore's compaction and crash-point tests: force a WAL compaction",
	"statestore.FlowIndex.Compact":    "statestore's index-merge tests: force a merge",
	"internal/leakcheck/leakcheck.go": "the port, pipeline and domain tests: mbuf conservation and pointer-free layouts, checked at cleanup",
	"faultinject.Injector.Set":        "the checkpointed chaos test: change a fault rate mid-run",
	"dpdk.NewRSSPartition":            "the dpdk and sharded-runner tests: traffic partitioned by RSS queue",
}

// callerRoots are the trees whose non-test files, with the root
// package's, may reference a declaration; declarations are taken from
// internal/ only.
var callerRoots = []string{"cmd", "examples", "internal", "bench/nfbench"}

// callerPlatforms are the file sets the guard type-checks: linux's, and
// the darwin one `make cross` builds, so a name that only a package's
// portable fallback uses still has a caller.
var callerPlatforms = [][2]string{{"linux", "amd64"}, {"darwin", "arm64"}}

// typedFiles is one type-checked package.
type typedFiles struct {
	files []*ast.File
	info  *types.Info
}

// check type-checks files as package path.
func check(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, typedFiles, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	p, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	return p, typedFiles{files, info}, err
}

// moduleScan type-checks the module's non-test files for one platform,
// from source; every other import goes to the standard importer.
type moduleScan struct {
	fset   *token.FileSet
	std    types.Importer
	ctxt   build.Context
	dirs   map[string]string // import path -> directory
	pkgs   map[string]*types.Package
	passes []typedFiles
}

func (s *moduleScan) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if match, err := s.ctxt.MatchFile(dir, filepath.Base(name)); err != nil || !match || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(s.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, tf, err := check(s.fset, s, path, files)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", s.ctxt.GOOS, s.ctxt.GOARCH, err)
	}
	s.pkgs[path] = p
	s.passes = append(s.passes, tf)
	return p, nil
}

// moduleDirs maps the import path of the root package and of each
// directory under roots that holds Go files to the directory. The bench
// module is "repro/bench", so one prefix serves both modules.
func moduleDirs(roots []string) (map[string]string, error) {
	dirs := map[string]string{"repro": "."}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if gos, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gos) > 0 {
				dirs["repro/"+filepath.ToSlash(path)] = path
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// span is a byte range of one file.
type span struct {
	file   string
	lo, hi int
}

// declSite is a declaration the guard holds to account. References from
// inside own do not count: its own declaration, and for a type its
// methods' receivers.
type declSite struct {
	pos  token.Position
	own  []span
	recv *types.Named // a method's receiver type
	name string
}

// callerIndex gathers declarations, references and interface types over
// every type-checked package of every platform.
type callerIndex struct {
	fset     *token.FileSet
	decls    map[string]*declSite
	refs     map[string][]token.Position
	byMethod map[string][]*types.Interface // interface types by method name
}

func newCallerIndex(fset *token.FileSet) *callerIndex {
	return &callerIndex{fset: fset, decls: map[string]*declSite{}, refs: map[string][]token.Position{}, byMethod: map[string][]*types.Interface{}}
}

// objKey names a package-level object "pkg.Name" and a method
// "pkg.Type.Method", pkg being the import path's last element; it is ""
// for anything else.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg := obj.Pkg().Path()
	pkg = pkg[strings.LastIndex(pkg, "/")+1:]
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil {
			if n := receiverNamed(recv.Type()); n != nil {
				return pkg + "." + n.Obj().Name() + "." + o.Name()
			}
			return ""
		}
	case *types.Var:
		if o.IsField() || o.Parent() != o.Pkg().Scope() {
			return ""
		}
	case *types.TypeName:
		if o.Parent() != o.Pkg().Scope() {
			return ""
		}
	default:
		return ""
	}
	return pkg + "." + obj.Name()
}

// receiverNamed is a method receiver's named type, through a pointer.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// add indexes one type-checked package, taking declarations from the
// files for which held is true.
func (x *callerIndex) add(tf typedFiles, held func(file string) bool) {
	for id, obj := range tf.info.Uses {
		x.ref(obj, id)
	}
	for sel, s := range tf.info.Selections {
		x.ref(s.Obj(), sel.Sel)
	}
	for _, tv := range tf.info.Types {
		x.addInterface(tv.Type)
	}
	for _, obj := range tf.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			x.addInterface(tn.Type())
		}
	}
	var recvs []span // a type's methods may sit in any file of its package
	for _, f := range tf.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				recvs = append(recvs, x.span(fd.Recv))
			}
		}
	}
	for _, f := range tf.files {
		if file := x.fset.Position(f.Pos()).Filename; held(file) {
			x.declareFile(tf.info, f, recvs)
		}
	}
}

// ref records a reference to obj at id.
func (x *callerIndex) ref(obj types.Object, id *ast.Ident) {
	if k := objKey(obj); k != "" {
		x.refs[k] = append(x.refs[k], x.fset.Position(id.Pos()))
	}
}

// declareFile records f's functions and methods, its exported types and
// vars, and the explicit methods of its interfaces but sealing markers;
// recvs are the method receivers of f's package.
func (x *callerIndex) declareFile(info *types.Info, f *ast.File, recvs []span) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if n := d.Name.Name; n == "init" || n == "main" || n == "_" {
				continue
			}
			site := &declSite{own: []span{x.span(d)}}
			if fn, ok := info.Defs[d.Name].(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				site.recv = receiverNamed(fn.Type().(*types.Signature).Recv().Type())
			}
			x.declare(info.Defs[d.Name], d.Name, site)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						x.declare(info.Defs[sp.Name], sp.Name, &declSite{own: append([]span{x.span(sp)}, recvs...)})
					}
					if it, ok := sp.Type.(*ast.InterfaceType); ok {
						x.declareMethods(info, it)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if d.Tok == token.VAR && n.IsExported() {
							x.declare(info.Defs[n], n, &declSite{own: []span{x.span(sp)}})
						}
					}
				}
			}
		}
	}
}

// declareMethods records an interface's explicit methods, each of which
// only a selection through the interface (or one embedding it) uses. A
// sealing marker — unexported, no parameters, no results — is never
// called, by design.
func (x *callerIndex) declareMethods(info *types.Info, it *ast.InterfaceType) {
	for _, field := range it.Methods.List {
		for _, n := range field.Names {
			fn, ok := info.Defs[n].(*types.Func)
			if !ok {
				continue
			}
			if sig := fn.Type().(*types.Signature); !fn.Exported() && sig.Params().Len() == 0 && sig.Results().Len() == 0 {
				continue
			}
			x.declare(fn, n, &declSite{own: []span{x.span(field)}})
		}
	}
}

func (x *callerIndex) span(n ast.Node) span {
	lo, hi := x.fset.Position(n.Pos()), x.fset.Position(n.End())
	return span{lo.Filename, lo.Offset, hi.Offset}
}

// declare records a declaration once; the platforms share its key.
func (x *callerIndex) declare(obj types.Object, id *ast.Ident, site *declSite) {
	k := objKey(obj)
	if _, seen := x.decls[k]; k == "" || seen {
		return
	}
	site.pos, site.name = x.fset.Position(id.Pos()), id.Name
	x.decls[k] = site
}

// addInterface adds t, if it is an interface with methods, to those a
// method may satisfy.
func (x *callerIndex) addInterface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || !it.IsMethodSet() {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		x.byMethod[name] = append(x.byMethod[name], it)
	}
}

// addScopes adds the named interfaces of pkgs and of everything they
// import — a method can satisfy io.Writer with no io.Writer in sight.
func (x *callerIndex) addScopes(pkgs []*types.Package) {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				x.addInterface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	x.addInterface(types.Universe.Lookup("error").Type())
	// errors.Is and errors.As find the two Unwraps through interfaces
	// they never name.
	errT := types.Universe.Lookup("error").Type()
	for _, res := range []types.Type{errT, types.NewSlice(errT)} {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", res)), false)
		x.addInterface(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete())
	}
}

// referenced reports whether anything outside a declaration's own spans
// refers to it, or, for a method, whether it implements a method of an
// interface its type satisfies.
func (x *callerIndex) referenced(k string, d *declSite) bool {
refs:
	for _, r := range x.refs[k] {
		for _, s := range d.own {
			if r.Filename == s.file && r.Offset >= s.lo && r.Offset < s.hi {
				continue refs
			}
		}
		return true
	}
	if d.recv == nil {
		return false
	}
	if d.recv.TypeParams().Len() > 0 { // go/types leaves Implements unspecified on generic types
		return len(x.byMethod[d.name]) > 0
	}
	for _, it := range x.byMethod[d.name] {
		if types.Implements(d.recv, it) || types.Implements(types.NewPointer(d.recv), it) {
			return true
		}
	}
	return false
}

// unreferenced lists "position: key" for every declaration with no
// reference, sorted.
func (x *callerIndex) unreferenced() map[string]string {
	out := map[string]string{}
	for k, d := range x.decls {
		if !x.referenced(k, d) {
			out[k] = d.pos.String()
		}
	}
	return out
}

// scanModule type-checks the module's non-test files on every platform
// and indexes them, holding internal/'s declarations to account.
func scanModule() (*callerIndex, error) {
	dirs, err := moduleDirs(callerRoots)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	x := newCallerIndex(fset)
	std := importer.Default()
	inInternal := func(file string) bool { return strings.HasPrefix(filepath.ToSlash(file), "internal/") }
	for _, pl := range callerPlatforms {
		ctxt := build.Default
		ctxt.GOOS, ctxt.GOARCH, ctxt.CgoEnabled = pl[0], pl[1], false
		s := &moduleScan{fset: fset, std: std, ctxt: ctxt, dirs: dirs, pkgs: map[string]*types.Package{}}
		for path := range dirs {
			if _, err := s.Import(path); err != nil {
				return nil, err
			}
		}
		for _, tf := range s.passes {
			x.add(tf, inInternal)
		}
		pkgs := make([]*types.Package, 0, len(s.pkgs))
		for _, p := range s.pkgs {
			pkgs = append(pkgs, p)
		}
		x.addScopes(pkgs)
	}
	return x, nil
}

// allowed returns the allowlist key covering a declaration, or "": the
// declaration itself, its type, or its file.
func allowed(key string, pos string) string {
	for k := key; strings.Count(k, ".") > 0; k = k[:strings.LastIndex(k, ".")] {
		if _, ok := callerAllowlist[k]; ok {
			return k
		}
	}
	file := pos[:strings.Index(pos, ":")]
	if _, ok := callerAllowlist[filepath.ToSlash(file)]; ok {
		return filepath.ToSlash(file)
	}
	return ""
}

// TestEveryExportHasACaller: every exported function, method, type and
// var in internal/, every unexported function and method, and every
// interface method but a sealing marker has a reference from a non-test
// file of the module (bench/nfbench included), on linux or on darwin; a
// method that implements an interface its type satisfies counts as
// referenced, and an interface method counts only when selected through
// its interface. What only tests reach is deleted, or moved into a test
// file, or named in callerAllowlist with the test that needs it. The
// fixture proves the check fires on a function and on an interface
// method, and honours interface satisfaction and sealing markers.
func TestEveryExportHasACaller(t *testing.T) {
	if len(callerAllowlist) > 15 {
		t.Fatalf("the allowlist has %d entries, at most 15", len(callerAllowlist))
	}
	x, err := scanModule()
	if err != nil {
		t.Fatal(err)
	}
	hit := map[string]bool{}
	var bad []string
	for k, pos := range x.unreferenced() {
		if a := allowed(k, pos); a != "" {
			hit[a] = true
			continue
		}
		bad = append(bad, pos+": "+k)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s has no caller outside tests: delete it, or move it into a test file", b)
	}
	for a := range callerAllowlist {
		if !hit[a] {
			t.Errorf("allowlist entry %q covers nothing unreferenced: remove it", a)
		}
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", "orphan.go.txt"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	_, tf, err := check(fset, importer.Default(), "fixture", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	fx := newCallerIndex(fset)
	fx.add(tf, func(string) bool { return true })
	got := fx.unreferenced()
	_, orphan := got["fixture.Orphan"]
	_, reset := got["fixture.counter.Reset"]
	if !orphan || !reset || len(got) != 2 {
		t.Fatalf("the fixture's two orphans were not the findings: %v", got)
	}
}
