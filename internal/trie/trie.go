// Package trie implements a binary longest-prefix-match trie over IPv4
// addresses, the index structure of the paper's §5 firewall example
// ("rules indexed via a trie for fast rule lookup based on packet
// headers").
//
// All node fields are exported: the checkpoint engine derives deep
// checkpointing for arbitrary types by walking public structure, exactly
// as the paper's compiler plugin derives Checkpointable inductively over a
// type's components.
package trie

import (
	"fmt"

	"repro/internal/packet"
)

// Node is one trie node. Child[0] follows a 0 bit, Child[1] a 1 bit; Val
// is non-nil when a prefix terminates here.
type Node[V any] struct {
	Child [2]*Node[V]
	Val   *V
}

// Trie is a binary LPM trie mapping IPv4 prefixes to values of type V.
type Trie[V any] struct {
	Root  *Node[V]
	Count int
}

// New creates an empty trie.
func New[V any]() *Trie[V] {
	return &Trie[V]{Root: &Node[V]{}}
}

// bit returns the i-th most significant bit of ip (i in [0,32)).
func bit(ip packet.IPv4, i int) int {
	return int(ip>>(31-i)) & 1
}

// Insert maps the prefix (ip masked to length bits) to v, replacing any
// existing value. length must be in [0, 32].
func (t *Trie[V]) Insert(ip packet.IPv4, length int, v V) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("trie: prefix length %d out of range", length)
	}
	n := t.Root
	for i := 0; i < length; i++ {
		b := bit(ip, i)
		if n.Child[b] == nil {
			n.Child[b] = &Node[V]{}
		}
		n = n.Child[b]
	}
	if n.Val == nil {
		t.Count++
	}
	val := v
	n.Val = &val
	return nil
}

// Lookup returns the value of the longest prefix matching ip.
func (t *Trie[V]) Lookup(ip packet.IPv4) (V, bool) {
	var best *V
	n := t.Root
	if n == nil {
		var zero V
		return zero, false
	}
	if n.Val != nil {
		best = n.Val
	}
	for i := 0; i < 32 && n != nil; i++ {
		n = n.Child[bit(ip, i)]
		if n != nil && n.Val != nil {
			best = n.Val
		}
	}
	if best == nil {
		var zero V
		return zero, false
	}
	return *best, true
}

// Exact returns the value stored for exactly the given prefix.
func (t *Trie[V]) Exact(ip packet.IPv4, length int) (V, bool) {
	var zero V
	if length < 0 || length > 32 {
		return zero, false
	}
	n := t.Root
	for i := 0; i < length && n != nil; i++ {
		n = n.Child[bit(ip, i)]
	}
	if n == nil || n.Val == nil {
		return zero, false
	}
	return *n.Val, true
}

// Walk visits every stored value in prefix order. The callback receives
// the prefix, its length, and a pointer to the stored value (so callers
// can inspect identity/sharing). Returning false stops the walk.
func (t *Trie[V]) Walk(fn func(prefix packet.IPv4, length int, v *V) bool) {
	var rec func(n *Node[V], prefix packet.IPv4, depth int) bool
	rec = func(n *Node[V], prefix packet.IPv4, depth int) bool {
		if n == nil {
			return true
		}
		if n.Val != nil {
			if !fn(prefix, depth, n.Val) {
				return false
			}
		}
		if !rec(n.Child[0], prefix, depth+1) {
			return false
		}
		return rec(n.Child[1], prefix|packet.IPv4(1<<(31-depth)), depth+1)
	}
	rec(t.Root, 0, 0)
}

// Len reports the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.Count }
