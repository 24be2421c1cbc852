// Package ifc implements the paper's §4 contribution: precise static
// information-flow control for a single-ownership language, formulated —
// as the paper formulates it — as verification of an abstract
// interpretation of the program.
//
// Each variable's value is represented in the abstract domain by its
// security label; input variables are initialized from user-provided
// #[label(...)] annotations; arithmetic is abstracted by the upper bound
// (join) of its arguments; and an auxiliary program-counter label tracks
// information flow via branching. Output channels carry label bounds, and
// the analysis proves that no label written to a channel exceeds its
// bound.
//
// The crucial enabler is the ownership discipline enforced by
// internal/minirust's borrow checker: because aliasing is impossible in
// the checked fragment, the abstract state needs no alias analysis — a
// write to a place raises exactly one abstract cell, never an unknown set
// of aliases. This is "the expensive alias analysis step" of Zanioli et
// al. that the paper deletes.
//
// The analysis is compositional in the paper's future-work sense: every
// function is summarized by its effect on the labels of its inputs, and
// summaries are memoized per argument-label tuple, so a function body is
// analyzed once per distinct abstract input, not once per call site.
package ifc

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/minirust"
)

// Errors returned by lattice construction.
var (
	ErrEmptyLattice = errors.New("ifc: lattice needs at least one level")
	ErrDupLevel     = errors.New("ifc: duplicate level")
)

// Lattice is a totally ordered set of confidentiality levels (a chain),
// bottom first. The default instance is public < secret, the lattice of
// the paper's examples; programs may declare richer chains with a
// `labels a < b < c;` directive.
type Lattice struct {
	levels []string
	rank   map[string]int
}

// NewLattice builds a chain lattice from bottom to top.
func NewLattice(levels ...string) (*Lattice, error) {
	if len(levels) == 0 {
		return nil, ErrEmptyLattice
	}
	rank := make(map[string]int, len(levels))
	for i, l := range levels {
		if _, dup := rank[l]; dup {
			return nil, fmt.Errorf("%w: %s", ErrDupLevel, l)
		}
		rank[l] = i
	}
	return &Lattice{levels: append([]string(nil), levels...), rank: rank}, nil
}

// Default returns the paper's two-point lattice public < secret.
func Default() *Lattice {
	l, err := NewLattice("public", "secret")
	if err != nil {
		panic(err)
	}
	return l
}

// ForProgram builds the lattice a program declares, or Default.
func ForProgram(prog *minirust.Program) (*Lattice, error) {
	if len(prog.LabelOrder) == 0 {
		return Default(), nil
	}
	return NewLattice(prog.LabelOrder...)
}

// Bottom returns the least (most public) level.
func (l *Lattice) Bottom() string { return l.levels[0] }

// Top returns the greatest (most secret) level.
func (l *Lattice) Top() string { return l.levels[len(l.levels)-1] }

// Has reports whether the level exists.
func (l *Lattice) Has(level string) bool {
	_, ok := l.rank[level]
	return ok
}

// Join returns the least upper bound. Unknown levels join to Top
// (fail-secure).
func (l *Lattice) Join(a, b string) string {
	ra, oka := l.rank[a]
	rb, okb := l.rank[b]
	if !oka || !okb {
		return l.Top()
	}
	if ra >= rb {
		return a
	}
	return b
}

// Le reports a ⊑ b. Unknown levels are never ⊑ anything but Top.
func (l *Lattice) Le(a, b string) bool {
	ra, oka := l.rank[a]
	rb, okb := l.rank[b]
	if !oka || !okb {
		return okb && rb == len(l.levels)-1
	}
	return ra <= rb
}

// Monitor adapts the lattice for the minirust dynamic monitor, used by
// tests as the runtime oracle for this static analysis.
func (l *Lattice) Monitor() *minirust.Monitor {
	return &minirust.Monitor{
		Bottom: l.Bottom(),
		Join:   l.Join,
		Le:     l.Le,
	}
}

// String renders the chain.
func (l *Lattice) String() string { return strings.Join(l.levels, " < ") }
