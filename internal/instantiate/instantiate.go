package instantiate

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Instantiator assembles executable test cases from SQL Type Sequences: for
// each sequence entry it randomly selects a type-matched structure from the
// library (or generates a fresh one when the library has none), concatenates
// the statements, and runs the dependency fixer.
type Instantiator struct {
	Rng   *rand.Rand
	Lib   *Library
	Gen   *Generator
	Fixer *Fixer
}

// New returns an instantiator bound to a library and dialect.
func New(rng *rand.Rand, lib *Library, dialect sqlt.Dialect) *Instantiator {
	return &Instantiator{
		Rng:   rng,
		Lib:   lib,
		Gen:   NewGenerator(rng, dialect),
		Fixer: NewFixer(rng),
	}
}

// Statement produces one statement of the requested type: a library
// structure when Pick hands one out, else a generated one.
func (in *Instantiator) Statement(t sqlt.Type) sqlast.Statement {
	if s := in.Lib.Pick(in.Rng, t); s != nil {
		return s
	}
	return in.Gen.Gen(t)
}

// TestCase instantiates a SQL Type Sequence into an executable test case.
// Because structure selection is random, calling it repeatedly on the same
// sequence yields diverse test cases (the paper instantiates each sequence
// multiple times).
func (in *Instantiator) TestCase(seq sqlt.Sequence) sqlast.TestCase {
	tc := make(sqlast.TestCase, 0, len(seq))
	for _, t := range seq {
		tc = append(tc, in.Statement(t))
	}
	in.Fixer.Fix(tc)
	return tc
}
