package repro

import (
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

// docRef matches a qualified name inside a backticked span: pkg.Ident or
// pkg.Type.Member, pkg lower-case, not itself the tail of a longer path
// or selector.
var (
	docSpan = regexp.MustCompile("`[^`\n]+`")
	docRef  = regexp.MustCompile(`(^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// packageDecls parses every Go file under internal/ and returns, per
// package directory base name, the set of names a document may cite:
// top-level funcs, types, vars and consts as "Name", and methods, struct
// fields and interface methods as "Type.Member".
func packageDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		set := decls[pkg]
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv != nil && len(decl.Recv.List) == 1 {
					name = typeName(decl.Recv.List[0].Type) + "." + name
				}
				set[name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							set[n.Name] = true
						}
					case *ast.TypeSpec:
						set[spec.Name.Name] = true
						var members *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						}
						if members != nil {
							for _, m := range members.List {
								for _, n := range m.Names {
									set[spec.Name.Name+"."+n.Name] = true
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// typeName strips the pointer and the type parameters off a receiver.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// benchMetrics returns nfbench's `layer.metric` names: BENCHMARK.json
// declares them, documents cite them in backticks, and their layer is
// usually a package name.
func benchMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// TestDocsCiteWhatExists: every backticked pkg.Identifier in README.md
// and DESIGN.md whose pkg is a directory under internal/ must resolve to
// a declaration in that package (tests included), so that a PR deleting
// or renaming a thing finds the prose that still names it. File names
// (pkg.go) and the benchmark's declared metric names are not identifiers.
func TestDocsCiteWhatExists(t *testing.T) {
	decls := packageDecls(t)
	metrics := benchMetrics(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, span := range docSpan.FindAllString(line, -1) {
				for _, m := range docRef.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
					pkg, name, member := m[2], m[3], m[4]
					set := decls[pkg]
					if set == nil || name == "go" || metrics[pkg+"."+name] {
						continue
					}
					if !set[name] {
						t.Errorf("%s:%d: `%s.%s`: no %s in internal/…/%s", doc, i+1, pkg, name, name, pkg)
					} else if member != "" && !set[name+"."+member] {
						t.Errorf("%s:%d: `%s.%s.%s`: %s.%s has no %s", doc, i+1, pkg, name, member, pkg, name, member)
					}
				}
			}
		}
	}
}

var (
	// docDir matches a directory under internal/, cmd/ or examples/, with
	// or without a leading ./, not itself the tail of a longer path.
	docDir = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:internal|cmd|examples)/[\w-]+)`)
	// docTreeRoot and docTreeEntry read a directory tree drawn in a code
	// block: a bare internal/ (or cmd/, examples/) line, then one entry
	// per line, two spaces in, as name/.
	docTreeRoot  = regexp.MustCompile(`^(internal|cmd|examples)/\s*$`)
	docTreeEntry = regexp.MustCompile(`^  ([\w-]+)/`)
	// docGoRun matches a go run of a command or example.
	docGoRun = regexp.MustCompile(`go run \./((?:cmd|examples)/[\w-]+)`)
)

// dirRef is a directory a document names, at a 1-based line.
type dirRef struct {
	line int
	dir  string
}

// docDirsNamed returns, in order, the internal/, cmd/ and examples/
// directories a Markdown document names in backticks or in a fenced code
// block, tree entries included.
func docDirsNamed(text string) []dirRef {
	var named []dirRef
	inBlock, root := false, ""
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inBlock, root = !inBlock, ""
			continue
		}
		spans := docSpan.FindAllString(line, -1)
		if inBlock {
			spans = []string{line}
			if m := docTreeRoot.FindStringSubmatch(line); m != nil {
				root = m[1]
			} else if m := docTreeEntry.FindStringSubmatch(line); m != nil && root != "" {
				named = append(named, dirRef{i + 1, root + "/" + m[1]})
			} else if !strings.HasPrefix(line, " ") {
				root = ""
			}
		}
		for _, span := range spans {
			for _, m := range docDir.FindAllStringSubmatch(span, -1) {
				named = append(named, dirRef{i + 1, m[1]})
			}
		}
	}
	return named
}

// isMainPackage reports whether dir holds a command: at least one non-test
// Go file, all of them in package main.
func isMainPackage(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	n := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		pf, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
		if err != nil || pf.Name.Name != "main" {
			return false
		}
		n++
	}
	return n > 0
}

// TestDocsNameDirsThatExist: every internal/, cmd/ or examples/ directory
// README.md or DESIGN.md names in backticks or a code block exists, and
// every go run line in README's quick start runs a main package — so a PR
// deleting a package or a command finds the prose that still names it.
func TestDocsNameDirsThatExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range docDirsNamed(string(raw)) {
			if fi, err := os.Stat(ref.dir); err != nil || !fi.IsDir() {
				t.Errorf("%s:%d: names %s, which is not a directory", doc, ref.line, ref.dir)
			}
		}
	}
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, quick, ok := strings.Cut(string(raw), "## Quick start")
	if !ok {
		t.Fatal("README.md has no Quick start section")
	}
	_, quick, _ = strings.Cut(quick, "```")
	quick, _, _ = strings.Cut(quick, "```")
	runs := 0
	for _, m := range docGoRun.FindAllStringSubmatch(quick, -1) {
		runs++
		if !isMainPackage(m[1]) {
			t.Errorf("README.md quick start: go run ./%s is not a main package", m[1])
		}
	}
	if runs == 0 {
		t.Error("README.md quick start runs no command or example")
	}
}
