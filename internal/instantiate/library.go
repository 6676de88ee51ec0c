package instantiate

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Library is the global AST structure store of paper §III-B: "when finding a
// new seed, LEGO parses each of its statements to extract AST structures and
// saves them into the global library. In instantiation, for each entry in
// the SQL Type Sequence, LEGO randomly selects a type-matched structure."
type Library struct {
	byType map[sqlt.Type][]sqlast.Statement
	// MaxPerType bounds memory; older structures are evicted FIFO.
	MaxPerType int
}

// NewLibrary returns an empty structure library.
func NewLibrary() *Library {
	return &Library{byType: map[sqlt.Type][]sqlast.Statement{}, MaxPerType: 64}
}

// Harvest stores every statement of the test case, keyed by type. Stored
// statements are canonical aliases of the harvested case, not copies: the
// fuzz loop never mutates a statement in place (mutation always operates on
// fresh clones), so the library only clones on the way out, and only the
// structures Pick hands out.
func (l *Library) Harvest(tc sqlast.TestCase) {
	for _, s := range tc {
		t := s.Type()
		bucket := l.byType[t]
		// skip exact duplicates of the most recent few entries
		sql := s.SQL()
		dup := false
		for i := len(bucket) - 1; i >= 0 && i >= len(bucket)-4; i-- {
			if bucket[i].SQL() == sql {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		bucket = append(bucket, s)
		if len(bucket) > l.MaxPerType {
			bucket = bucket[len(bucket)-l.MaxPerType:]
		}
		l.byType[t] = bucket
	}
}

// Pick draws a random stored structure of type t, then a coin that keeps it
// three times in four (instantiation is biased toward reuse, as the paper's
// library is), and returns a fresh clone of a kept structure. It returns nil
// when the library holds no structure of type t or the coin declines the
// draw; the caller then generates one. The coin comes before the clone, so
// Pick clones only what it hands out.
func (l *Library) Pick(rng *rand.Rand, t sqlt.Type) sqlast.Statement {
	bucket := l.byType[t]
	if len(bucket) == 0 {
		return nil
	}
	s := bucket[rng.Intn(len(bucket))]
	if rng.Intn(4) == 0 {
		return nil
	}
	return s.Clone()
}

// Export returns the stored structures' SQL per type, in storage order, for
// checkpointing.
func (l *Library) Export() map[sqlt.Type][]string {
	out := make(map[sqlt.Type][]string, len(l.byType))
	for t, bucket := range l.byType {
		if len(bucket) == 0 {
			continue
		}
		sqls := make([]string, len(bucket))
		for i, s := range bucket {
			sqls[i] = s.SQL()
		}
		out[t] = sqls
	}
	return out
}

// Import replaces the library's contents with parsed statements. A
// statement that no longer parses is reported, since silently dropping it
// would desynchronize a resumed campaign.
func (l *Library) Import(m map[sqlt.Type][]string) error {
	byType := make(map[sqlt.Type][]sqlast.Statement, len(m))
	for t, sqls := range m {
		bucket := make([]sqlast.Statement, 0, len(sqls))
		for _, sql := range sqls {
			s, err := sqlparse.Parse(sql)
			if err != nil {
				return err
			}
			bucket = append(bucket, s)
		}
		byType[t] = bucket
	}
	l.byType = byType
	return nil
}

// Size returns the total number of stored structures.
func (l *Library) Size() int {
	n := 0
	for _, b := range l.byType {
		n += len(b)
	}
	return n
}

// TypesCovered returns how many statement types have at least one structure.
func (l *Library) TypesCovered() int {
	n := 0
	for _, b := range l.byType {
		if len(b) > 0 {
			n++
		}
	}
	return n
}
