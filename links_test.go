package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLibraryLinksNoHTTP: no non-test file under internal/ imports
// net/http (or a package under it), crypto/tls or mime/*. The library
// renders its admin views to an io.Writer and cmd/nf-pipeline serves
// them; an import here would link the HTTP stack — ≈ 1.5 MB of binary
// and its resident pages — into every program built on the library,
// nfbench's NF child included, whether or not it serves anything.
func TestLibraryLinksNoHTTP(t *testing.T) {
	banned := func(path string) bool {
		return path == "net/http" || strings.HasPrefix(path, "net/http/") ||
			path == "crypto/tls" || path == "mime" || strings.HasPrefix(path, "mime/")
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); banned(p) {
				t.Errorf("%s imports %q: render to an io.Writer and serve it from cmd/nf-pipeline/admin.go", fset.Position(imp.Pos()), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
