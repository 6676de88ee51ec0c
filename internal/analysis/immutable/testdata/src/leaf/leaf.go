// Package leaf is a miniature AST for the immutable fixtures: two annotated
// leaves (one standalone, one inside a type group), an annotation on a
// non-struct type, and an unannotated interior node.
package leaf

// Lit is a constant.
//
//lego:immutable clones share it
type Lit struct {
	Kind int
	Int  int64
}

type (
	// Col is a column reference.
	//
	//lego:immutable
	Col struct{ Name string }

	// Names is not a struct.
	//
	//lego:immutable
	Names []string // want `//lego:immutable requires a struct type`
)

// Binary is an interior node: its fields may be written.
type Binary struct {
	Op   string
	L, R *Lit
}

// IntLit builds a literal; a fresh composite-literal local is exempt.
func IntLit(v int64) *Lit {
	l := &Lit{Kind: 1}
	l.Int = v
	return l
}

// Negate writes the receiver's field in the owner package itself: flagged.
func (l *Lit) Negate() {
	l.Int = -l.Int // want `write to l\.Int: leaf\.Lit is //lego:immutable and shared by clones; build a new Lit instead`
}

// Swap rewrites an interior node: clean.
func (b *Binary) Swap() {
	b.L, b.R = b.R, b.L
	b.Op = "swapped"
}
