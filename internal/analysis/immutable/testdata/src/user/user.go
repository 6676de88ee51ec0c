// Package user exercises immutable's write checks against the leaf
// fixture's facts.
package user

import "leaf"

var global leaf.Lit

// Bump writes through a shared pointer: flagged.
func Bump(l *leaf.Lit) {
	l.Int++ // want `write to l\.Int: leaf\.Lit is //lego:immutable`
}

// Rename assigns a field of a grouped annotated type: flagged.
func Rename(c *leaf.Col) {
	c.Name = "x" // want `write to c\.Name: leaf\.Col is //lego:immutable`
}

// Nested writes a leaf reached through an interior node: flagged.
func Nested(b *leaf.Binary) {
	b.L.Int += 2 // want `write to b\.L\.Int: leaf\.Lit is //lego:immutable`
	b.R = leaf.IntLit(3)
}

// Overwrite replaces the whole value behind the pointer: flagged.
func Overwrite(l *leaf.Lit) {
	*l = leaf.Lit{} // want `write to \*l: leaf\.Lit is //lego:immutable`
}

// Handle takes a field's address for a later write: flagged.
func Handle(l *leaf.Lit) *int64 {
	return &l.Int // want `address of l\.Int: leaf\.Lit is //lego:immutable`
}

// Elements writes leaves held by a slice: flagged.
func Elements(ls []leaf.Lit) {
	for i := range ls {
		ls[i].Kind = 0 // want `write to ls\[i\]\.Kind: leaf\.Lit is //lego:immutable`
	}
}

// Global writes a package-level leaf: flagged.
func Global() {
	global.Int = 1 // want `write to global\.Int: leaf\.Lit is //lego:immutable`
}

// Ranged assigns a field as a range variable: flagged.
func Ranged(l *leaf.Lit, xs []int64) {
	for _, l.Int = range xs { // want `write to l\.Int: leaf\.Lit is //lego:immutable`
	}
}

// Fresh builds a leaf from a composite literal: clean.
func Fresh() *leaf.Lit {
	l := &leaf.Lit{}
	l.Int = 7
	return l
}

// Copy writes a local value copy: clean.
func Copy(l *leaf.Lit) leaf.Lit {
	c := *l
	c.Int = -c.Int
	return c
}

// Replace builds a new leaf instead of writing one: clean.
func Replace(b *leaf.Binary) {
	b.L = leaf.IntLit(-b.L.Int)
	_ = b.L.Int
}

// Allowed demonstrates suppression: the runner drops the Allowed finding.
func Allowed(l *leaf.Lit) {
	l.Kind = 2 //lego:allow immutable — fixture exercises the allow channel
}
