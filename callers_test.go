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
// file references, and the fields no non-test file reads or writes, that
// stay anyway, each with the test or bench that needs it and why. A key is a
// declaration ("pkg.Name", "pkg.Type.Method" or "pkg.Type.field"), which
// covers everything under it, or a file, which covers every declaration
// in it.
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
	"checkpoint.Stats":                "TestClaim_* and checkpoint's tests: Figure 3's traversal counts, which only a measurement reads",
	"domain.ckptToken.at":             "domain's lastCheckpoint test seam: the age of the restored epoch, which the admin surface will show",
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
// every type-checked package of every platform, and struct fields with
// the reads and writes of them. A field is named by where it is declared
// ("file:offset"), which the platforms' separate type-checks share.
type callerIndex struct {
	fset     *token.FileSet
	decls    map[string]*declSite
	refs     map[string][]token.Position
	byMethod map[string][]*types.Interface // interface types by method name
	fields   map[string]fieldSite
	read     map[string]bool
	written  map[string]bool
}

// fieldSite is a struct field the guard holds to account: its key
// ("pkg.Type.field") and its position.
type fieldSite struct{ key, pos string }

func newCallerIndex(fset *token.FileSet) *callerIndex {
	return &callerIndex{fset: fset, decls: map[string]*declSite{}, refs: map[string][]token.Position{},
		byMethod: map[string][]*types.Interface{}, fields: map[string]fieldSite{}, read: map[string]bool{}, written: map[string]bool{}}
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
	case *types.TypeName, *types.Const:
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
	stored := x.markWrites(tf)
	for sel, s := range tf.info.Selections {
		x.ref(s.Obj(), sel.Sel)
		x.readPath(s, stored[sel])
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
			x.declareFields(tf.info, f)
		}
	}
}

// readPath records the fields a selection reads: every embedded field it
// passes through, and the field it selects unless the selection is only
// stored to. A composite-literal key is no selection, so never a read.
func (x *callerIndex) readPath(s *types.Selection, store bool) {
	idx := s.Index()
	if s.Kind() != types.FieldVal {
		idx, store = idx[:len(idx)-1], false // the last index is the method's
	}
	walkPath(s.Recv(), idx, func(f *types.Var, last bool) {
		if !store || !last {
			x.read[x.where(f.Pos())] = true
		}
	})
}

// walkPath visits, in order, every field an index path passes through
// from a value of type t.
func walkPath(t types.Type, idx []int, visit func(f *types.Var, last bool)) {
	for i, n := range idx {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return // selected through a type parameter: no struct to walk
		}
		f := st.Field(n)
		visit(f, i == len(idx)-1)
		t = f.Type()
	}
}

func (x *callerIndex) where(p token.Pos) string {
	pos := x.fset.Position(p)
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Offset)
}

// markWrites records the fields tf's files write: every field on the
// path of an assignment's left-hand side, of ++ or --, of a range
// target, of &x.f, and of the operand of a pointer-receiver method
// (x.mu.Lock() takes &x.mu); a struct literal's keys and positional
// elements; and every field of a struct whose address becomes an
// unsafe.Pointer, which the kernel or the runtime may fill. It returns
// the selectors that only store: the direct left-hand side of an
// assignment, and the operand of ++ or --.
func (x *callerIndex) markWrites(tf typedFiles) map[*ast.SelectorExpr]bool {
	info := tf.info
	stored := map[*ast.SelectorExpr]bool{}
	store := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			stored[sel] = true
		}
	}
	path := func(e ast.Expr) {
		for e != nil {
			switch n := e.(type) {
			case *ast.ParenExpr:
				e = n.X
			case *ast.StarExpr:
				e = n.X
			case *ast.IndexExpr:
				e = n.X
			case *ast.SelectorExpr:
				if s, ok := info.Selections[n]; ok && s.Kind() == types.FieldVal {
					x.writePath(s.Recv(), s.Index())
				}
				e = n.X
			default:
				return
			}
		}
	}
	for _, f := range tf.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					store(e)
					path(e)
				}
			case *ast.IncDecStmt:
				store(n.X)
				path(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					path(n.Key)
					path(n.Value)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					path(n.X)
				}
			case *ast.CompositeLit:
				x.writeLiteral(info, n)
			case *ast.SelectorExpr:
				s, ok := info.Selections[n]
				if !ok || s.Kind() != types.MethodVal {
					break
				}
				if _, byPtr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); byPtr {
					x.writePath(s.Recv(), s.Index()[:len(s.Index())-1])
					if _, isPtr := info.Types[n.X].Type.Underlying().(*types.Pointer); !isPtr {
						path(n.X)
					}
				}
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() && types.Identical(tv.Type, types.Typ[types.UnsafePointer]) && len(n.Args) == 1 {
					if p, ok := info.Types[n.Args[0]].Type.Underlying().(*types.Pointer); ok {
						x.writeAll(p.Elem(), map[types.Type]bool{})
					}
				}
			}
			return true
		})
	}
	return stored
}

// writePath records every field an index path passes through from a
// value of type t.
func (x *callerIndex) writePath(t types.Type, idx []int) {
	walkPath(t, idx, func(f *types.Var, _ bool) { x.written[x.where(f.Pos())] = true })
}

// writeLiteral records the fields a struct literal sets, by key or by
// position.
func (x *callerIndex) writeLiteral(info *types.Info, lit *ast.CompositeLit) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok { // &T{} elided in a []*T literal
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, e := range lit.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		if !keyed {
			x.written[x.where(st.Field(i).Pos())] = true
			continue
		}
		for j := 0; j < st.NumFields(); j++ {
			if id, ok := kv.Key.(*ast.Ident); ok && st.Field(j).Name() == id.Name {
				x.written[x.where(st.Field(j).Pos())] = true
			}
		}
	}
}

// writeAll records every field of t, and of the structs and arrays it
// holds by value.
func (x *callerIndex) writeAll(t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			x.written[x.where(u.Field(i).Pos())] = true
			x.writeAll(u.Field(i).Type(), seen)
		}
	case *types.Array:
		x.writeAll(u.Elem(), seen)
	}
}

// declareFields records every field of every struct type f declares,
// but a blank one and one with a tag (encoding/json reads those), keyed
// "pkg.Name.field" under the declaration that holds it: the type, or
// the function or var an anonymous struct sits in.
func (x *callerIndex) declareFields(info *types.Info, f *ast.File) {
	pkg := f.Name.Name
	var walk func(prefix string, n ast.Node)
	walk = func(prefix string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec: // a type declared inside a function
				walk(prefix+"."+n.Name.Name, n.Type)
				return false
			case *ast.StructType:
				for _, field := range n.Fields.List {
					ids := field.Names
					if len(ids) == 0 {
						ids = []*ast.Ident{embeddedName(field.Type)}
					}
					for _, id := range ids {
						obj, ok := info.Defs[id].(*types.Var)
						if ok && id.Name != "_" && field.Tag == nil {
							x.fields[x.where(obj.Pos())] = fieldSite{prefix + "." + id.Name, x.fset.Position(obj.Pos()).String()}
						}
						walk(prefix+"."+id.Name, field.Type)
					}
				}
				return false
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			walk(pkg+"."+d.Name.Name, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					walk(pkg+"."+sp.Name.Name, sp.Type)
				case *ast.ValueSpec:
					walk(pkg+"."+sp.Names[0].Name, sp)
				}
			}
		}
	}
}

// embeddedName is the identifier an embedded field is named by.
func embeddedName(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		default:
			return nil
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
						if d.Tok == token.CONST && n.Name != "_" || n.IsExported() {
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

// finding is where an unreferenced declaration or field is, and what it
// lacks.
type finding struct{ pos, lacks string }

// unreferenced maps the key of every declaration with no reference, and
// of every field that nothing reads or nothing writes, to its finding.
func (x *callerIndex) unreferenced() map[string]finding {
	out := map[string]finding{}
	for k, d := range x.decls {
		if !x.referenced(k, d) {
			out[k] = finding{d.pos.String(), "caller"}
		}
	}
	for at, f := range x.fields {
		switch read, written := x.read[at], x.written[at]; {
		case !read && !written:
			out[f.key] = finding{f.pos, "reader or writer"}
		case !read:
			out[f.key] = finding{f.pos, "reader"}
		case !written:
			out[f.key] = finding{f.pos, "writer"}
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
// var in internal/, every unexported function and method, every
// package-level constant, and every interface method but a sealing
// marker has a reference from a non-test file of the module
// (bench/nfbench included), on linux or on darwin; a method that
// implements an interface its type satisfies counts as referenced, and
// an interface method counts only when selected through its interface.
// Every struct field declared in internal/, but a blank or tagged one, is
// read by such a file — selected anywhere but as the direct left-hand
// side of an assignment or the operand of ++ or --, and a literal key is
// no read — and written by one: on the path of an assignment's left-hand
// side, of ++ or --, of a range target, of &x.f or of a pointer-receiver
// method's operand, as a literal's key or positional element, or inside
// a struct whose address becomes an unsafe.Pointer. What only tests
// reach is deleted, or moved into a test file, or named in
// callerAllowlist with the test that needs it. The fixture proves the
// check fires on a function, a constant, an interface method, each kind
// of unread field and an unwritten one, and honours interface
// satisfaction, sealing markers, tags and every kind of write.
func TestEveryExportHasACaller(t *testing.T) {
	if len(callerAllowlist) > 14 {
		t.Fatalf("the allowlist has %d entries, at most 14", len(callerAllowlist))
	}
	x, err := scanModule()
	if err != nil {
		t.Fatal(err)
	}
	hit := map[string]bool{}
	var bad []string
	for k, f := range x.unreferenced() {
		if a := allowed(k, f.pos); a != "" {
			hit[a] = true
			continue
		}
		bad = append(bad, f.pos+": "+k+" has no "+f.lacks)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s outside tests: delete it, or move it into a test file", b)
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
	want := []string{"fixture.Orphan", "fixture.spare", "fixture.counter.Reset",
		"fixture.gauge.unread", "fixture.gauge.stored", "fixture.gauge.keyed", "fixture.gauge.bumped", "fixture.gauge.unset"}
	bad = nil
	for _, k := range want {
		if _, ok := got[k]; !ok {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 || len(got) != len(want) {
		t.Fatalf("the findings were %v, want exactly the fixture's orphans %v", got, want)
	}
}
