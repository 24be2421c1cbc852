package statestore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// diskCalls are the package os functions that touch the file system.
var diskCalls = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"Rename": true, "Remove": true, "RemoveAll": true, "Mkdir": true,
	"MkdirAll": true, "MkdirTemp": true, "ReadFile": true, "WriteFile": true,
	"ReadDir": true, "Stat": true, "Lstat": true, "Truncate": true,
	"Chmod": true, "Chtimes": true, "Link": true, "Symlink": true,
	"Readlink": true, "NewFile": true, "DirFS": true,
}

// diskUses lists every use of a diskCalls function in the files that
// match pattern, except test files and the file named skip.
func diskUses(pattern, skip string) ([]string, error) {
	names, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var found []string
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") || filepath.Base(name) == skip {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg := "" // what the file calls package os
		for _, imp := range f.Imports {
			if imp.Path.Value == `"os"` {
				pkg = "os"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg && diskCalls[sel.Sel.Name] {
					found = append(found, fset.Position(sel.Pos()).String()+": os."+sel.Sel.Name)
				}
			}
			return true
		})
	}
	return found, nil
}

// TestOnlyTheSeamTouchesTheDisk: outside fs.go, no non-test file of the
// package calls package os on the file system — every disk call goes
// through the fileSystem a store was opened with, so a test can fault
// it or record it. The fixture proves the check fires, under an import
// alias too.
func TestOnlyTheSeamTouchesTheDisk(t *testing.T) {
	found, err := diskUses("*.go", "fs.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s: touch the disk through the store's fileSystem", f)
	}
	found, err = diskUses(filepath.Join("testdata", "bare_disk.go.txt"), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 2 || !strings.HasSuffix(found[0], ".Open") || !strings.HasSuffix(found[1], ".Rename") {
		t.Fatalf("the fixture's two disk calls were not both found: %q", found)
	}
}

// TestLookupAllocatesNothing: a lookup reads through the file interface
// into the index's own scratch, from the overlay's log entry and from the
// index's binary search alike. A probe buffer on the stack escapes
// through the interface and costs an allocation per lookup.
func TestLookupAllocatesNothing(t *testing.T) {
	s := openT(t, t.TempDir(), Config{Fsync: FsyncNone, FlowCompactAfter: -1})
	fi := flowIndexT(t, s, "w")
	if err := fi.SpillFlows(flowBatch(0, 64, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fi.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := fi.SpillFlows(flowBatch(64, 8, 1)); err != nil {
		t.Fatal(err)
	}
	for _, i := range []uint64{10, 66} { // in the index, in the overlay
		if allocs := testing.AllocsPerRun(100, func() {
			if _, ok, err := fi.LookupFlow(spread(i)); !ok || err != nil {
				t.Fatalf("flow %d: %v, %v", i, ok, err)
			}
		}); allocs != 0 {
			t.Fatalf("a lookup of flow %d allocates %.1f objects, want 0", i, allocs)
		}
	}
}

// TestOneWritePerSpillTwoPerEpoch: an epoch reaches the WAL as two
// writes, its header and then the caller's payload, uncopied; a spill
// batch reaches its log as one framed write.
func TestOneWritePerSpillTwoPerEpoch(t *testing.T) {
	fs := &faultFS{}
	s := openFaultT(t, t.TempDir(), Config{Fsync: FsyncNone, CompactAfter: -1, FlowCompactAfter: -1}, fs)
	fi := flowIndexT(t, s, "w")
	for i := 1; i <= 3; i++ {
		if err := s.PersistEpoch("w", uint64(i), []byte("epoch")); err != nil {
			t.Fatal(err)
		}
		if err := fi.SpillFlows(flowBatch(10*i, 10, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if epochs, spills := fs.count("write", walName), fs.count("write", "w.flog"); epochs != 6 || spills != 3 {
		t.Fatalf("3 epochs and 3 spill batches took %d and %d writes, want 6 and 3", epochs, spills)
	}
}
