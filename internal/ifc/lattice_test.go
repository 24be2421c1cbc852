package ifc

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/minirust"
)

func TestNewLatticeValidation(t *testing.T) {
	if _, err := NewLattice(); !errors.Is(err, ErrEmptyLattice) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := NewLattice("a", "a"); !errors.Is(err, ErrDupLevel) {
		t.Fatalf("dup: %v", err)
	}
}

func TestDefaultLattice(t *testing.T) {
	l := Default()
	if l.Bottom() != "public" || l.Top() != "secret" {
		t.Fatalf("default = %s", l)
	}
	if !l.Le("public", "secret") || l.Le("secret", "public") {
		t.Fatal("order wrong")
	}
	if l.Join("public", "secret") != "secret" {
		t.Fatal("join wrong")
	}
	if l.String() != "public < secret" {
		t.Fatalf("String = %q", l.String())
	}
}

func TestLatticeUnknownLevelsFailSecure(t *testing.T) {
	l := Default()
	if l.Join("mystery", "public") != "secret" {
		t.Fatal("unknown join must go to top")
	}
	if l.Le("mystery", "public") {
		t.Fatal("unknown must not be ⊑ public")
	}
	if !l.Le("mystery", "secret") {
		t.Fatal("everything must be ⊑ top")
	}
	if l.Has("mystery") {
		t.Fatal("Has(unknown)")
	}
}

func TestForProgram(t *testing.T) {
	prog, err := minirust.Parse(`labels low < mid < high; fn main() { }`)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ForProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if l.Bottom() != "low" || l.Top() != "high" || len(l.levels) != 3 {
		t.Fatalf("lattice = %s", l)
	}
	prog2, err := minirust.Parse(`fn main() { }`)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ForProgram(prog2)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Bottom() != "public" {
		t.Fatal("default lattice not used")
	}
}

// Lattice laws: join is commutative, associative, idempotent; Le is a
// total order consistent with Join.
func TestQuickLatticeLaws(t *testing.T) {
	l, err := NewLattice("a", "b", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	levels := l.levels
	pick := func(i uint8) string { return levels[int(i)%len(levels)] }
	f := func(i, j, k uint8) bool {
		x, y, z := pick(i), pick(j), pick(k)
		if l.Join(x, y) != l.Join(y, x) {
			return false
		}
		if l.Join(x, l.Join(y, z)) != l.Join(l.Join(x, y), z) {
			return false
		}
		if l.Join(x, x) != x {
			return false
		}
		// x ⊑ y iff join(x,y) == y
		if l.Le(x, y) != (l.Join(x, y) == y) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorAdapter(t *testing.T) {
	m := Default().Monitor()
	if m.Bottom != "public" {
		t.Fatal("bottom")
	}
	if m.Join("public", "secret") != "secret" || !m.Le("public", "secret") {
		t.Fatal("ops")
	}
}
