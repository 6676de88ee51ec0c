package instantiate

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestGeneratorCoversEveryType verifies Gen produces a statement of the
// requested type for every type of every dialect, and that the statement
// survives a print->parse round trip (i.e. it is syntactically valid).
func TestGeneratorCoversEveryType(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		g := NewGenerator(rand.New(rand.NewSource(1)), d)
		for _, ty := range d.Types() {
			for rep := 0; rep < 5; rep++ {
				s := g.Gen(ty)
				if s == nil {
					t.Fatalf("%s: Gen(%s) returned nil", d, ty)
				}
				if got := s.Type(); got != ty {
					t.Fatalf("%s: Gen(%s) produced type %s", d, ty, got)
				}
				sql := s.SQL()
				if _, err := sqlparse.Parse(sql); err != nil {
					t.Fatalf("%s: Gen(%s) produced unparseable SQL %q: %v", d, ty, sql, err)
				}
			}
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(rand.New(rand.NewSource(9)), sqlt.DialectPostgres)
	g2 := NewGenerator(rand.New(rand.NewSource(9)), sqlt.DialectPostgres)
	for i := 0; i < 50; i++ {
		ty := g1.RandomType()
		if ty != g2.RandomType() {
			t.Fatal("RandomType diverged")
		}
		if g1.Gen(ty).SQL() != g2.Gen(ty).SQL() {
			t.Fatal("Gen diverged")
		}
	}
}

func TestRandomTypeRespectsDialect(t *testing.T) {
	g := NewGenerator(rand.New(rand.NewSource(3)), sqlt.DialectComdb2)
	for i := 0; i < 200; i++ {
		ty := g.RandomType()
		if !sqlt.DialectComdb2.Supports(ty) {
			t.Fatalf("RandomType produced unsupported %s", ty)
		}
	}
}

func TestLibraryHarvestAndPick(t *testing.T) {
	lib := NewLibrary()
	tc := sqlparse.MustParseScript(`
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1);
SELECT * FROM t;
`)
	lib.Harvest(tc)
	if lib.Size() != 3 || lib.TypesCovered() != 3 {
		t.Fatalf("size=%d types=%d", lib.Size(), lib.TypesCovered())
	}
	rng := rand.New(rand.NewSource(1))
	// The keep coin declines one draw in four; draw until one is kept.
	kept := func() sqlast.Statement {
		for i := 0; i < 64; i++ {
			if s := lib.Pick(rng, sqlt.Insert); s != nil {
				return s
			}
		}
		t.Fatal("Pick declined 64 draws in a row")
		return nil
	}
	s := kept()
	if s.Type() != sqlt.Insert {
		t.Fatalf("picked %v", s)
	}
	// picks are clones: mutating one must not affect the library
	s.(*sqlast.InsertStmt).Table = "zzz"
	s2 := kept()
	if s2.(*sqlast.InsertStmt).Table == "zzz" {
		t.Fatal("library structures must be isolated from picks")
	}
	if lib.Pick(rng, sqlt.Vacuum) != nil {
		t.Fatal("missing type picks nil")
	}
}

// TestPickDrawsIndexThenCoin pins Pick's RNG stream: the bucket index, then
// the keep coin, so instantiation consumes exactly the draws it always has,
// and a declined draw hands out nothing.
func TestPickDrawsIndexThenCoin(t *testing.T) {
	lib := NewLibrary()
	lib.Harvest(sqlparse.MustParseScript("SELECT 1; SELECT 2; SELECT 3;"))
	rng := rand.New(rand.NewSource(7))
	ref := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := lib.Pick(rng, sqlt.Select)
		idx, keep := ref.Intn(3), ref.Intn(4) != 0
		if !keep {
			if s != nil {
				t.Fatalf("draw %d: coin declined but Pick handed out %s", i, s.SQL())
			}
			continue
		}
		if want := lib.byType[sqlt.Select][idx]; s == nil || s == want || s.SQL() != want.SQL() {
			t.Fatalf("draw %d: Pick = %v, want a clone of %s", i, s, want.SQL())
		}
	}
}

func TestLibrarySkipsRecentDuplicates(t *testing.T) {
	lib := NewLibrary()
	tc := sqlparse.MustParseScript("SELECT 1;")
	lib.Harvest(tc)
	lib.Harvest(tc)
	if lib.Size() != 1 {
		t.Fatalf("size = %d, duplicate should be skipped", lib.Size())
	}
}

func TestLibraryEviction(t *testing.T) {
	lib := NewLibrary()
	lib.MaxPerType = 4
	g := NewGenerator(rand.New(rand.NewSource(5)), sqlt.DialectPostgres)
	for i := 0; i < 20; i++ {
		lib.Harvest(sqlast.TestCase{g.Gen(sqlt.Select)})
	}
	if lib.Size() > 4 {
		t.Fatalf("size = %d, want <= MaxPerType", lib.Size())
	}
}

// TestFixerResolvesDependencies checks the §III-B example behaviour: after
// fixing, statements reference objects that exist, so the semantic error
// rate drops dramatically when executed.
func TestFixerResolvesDependencies(t *testing.T) {
	tc := sqlparse.MustParseScript(`
CREATE TABLE v0 (x INT PRIMARY KEY, y INT);
INSERT INTO v2 (v1) VALUES (100);
SELECT zz FROM nowhere;
`)
	f := NewFixer(rand.New(rand.NewSource(1)))
	f.Fix(tc)

	ins := tc[1].(*sqlast.InsertStmt)
	if ins.Table != "v0" {
		t.Fatalf("insert table = %q, want v0", ins.Table)
	}
	if len(ins.Cols) != 0 {
		t.Fatal("fixer drops the stale column list")
	}
	if len(ins.Rows[0]) != 2 {
		t.Fatalf("row arity = %d, want 2", len(ins.Rows[0]))
	}
	sel := tc[2].(*sqlast.SelectStmt)
	bt := sel.From[0].(*sqlast.BaseTable)
	if bt.Name != "v0" {
		t.Fatalf("select table = %q, want v0", bt.Name)
	}
	cr := sel.Items[0].X.(*sqlast.ColRef)
	if cr.Name != "x" && cr.Name != "y" {
		t.Fatalf("column ref = %q, want x or y", cr.Name)
	}
}

func TestFixerRenamesDuplicateCreates(t *testing.T) {
	tc := sqlparse.MustParseScript(`
CREATE TABLE t0 (a INT);
CREATE TABLE t0 (b INT);
`)
	f := NewFixer(rand.New(rand.NewSource(1)))
	f.Fix(tc)
	n1 := tc[0].(*sqlast.CreateTableStmt).Name
	n2 := tc[1].(*sqlast.CreateTableStmt).Name
	if n1 == n2 {
		t.Fatalf("duplicate create not renamed: %q", n2)
	}
}

func TestFixerTracksDrops(t *testing.T) {
	tc := sqlparse.MustParseScript(`
CREATE TABLE t0 (a INT);
CREATE TABLE t1 (b INT);
DROP TABLE t0;
INSERT INTO t0 VALUES (1);
`)
	f := NewFixer(rand.New(rand.NewSource(1)))
	f.Fix(tc)
	ins := tc[3].(*sqlast.InsertStmt)
	if ins.Table != "t1" {
		t.Fatalf("insert into dropped table not redirected: %q", ins.Table)
	}
}

func TestFixerPreparedAndCursors(t *testing.T) {
	tc := sqlparse.MustParseScript(`
CREATE TABLE t0 (a INT);
PREPARE q0 AS SELECT a FROM t0;
EXECUTE somethingelse;
DECLARE cur0 CURSOR FOR SELECT a FROM t0;
FETCH 2 FROM nosuchcursor;
CLOSE nosuchcursor;
`)
	f := NewFixer(rand.New(rand.NewSource(1)))
	f.Fix(tc)
	if tc[2].(*sqlast.ExecuteStmt).Name != "q0" {
		t.Fatal("execute not redirected to existing prepared statement")
	}
	if tc[4].(*sqlast.FetchStmt).Cursor != "cur0" {
		t.Fatal("fetch not redirected to existing cursor")
	}
	if tc[5].(*sqlast.CloseCursorStmt).Name != "cur0" {
		t.Fatal("close not redirected to existing cursor")
	}
}

// TestInstantiationExecutability is the integration property behind §III-B:
// instantiated sequences must mostly execute, not just parse. We require a
// sub-60% statement error rate over many random sequences (unfixed random
// TestReusedFixerMatchesFreshFixer runs one Fixer, whose simulated schema is
// emptied in place per Fix, against a fresh Fixer per test case on the same
// RNG stream: a reset that forgot any state would repair some case
// differently. It also checks by reflection that reset leaves every field
// of the schema empty, so a field added later that reset forgets fails.
func TestReusedFixerMatchesFreshFixer(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		g := NewGenerator(rand.New(rand.NewSource(3)), d)
		reusedRng, freshRng := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
		reused := NewFixer(reusedRng)
		for i := 0; i < 500; i++ {
			tc := make(sqlast.TestCase, 6)
			for j := range tc {
				tc[j] = g.Gen(g.RandomType())
			}
			a, b := tc.Clone(), tc.Clone()
			reused.Fix(a)
			NewFixer(freshRng).Fix(b)
			if a.SQL() != b.SQL() {
				t.Fatalf("%s case %d: reused fixer diverged:\n  reused: %s\n  fresh:  %s", d, i, a.SQL(), b.SQL())
			}
		}
		reused.sch.reset()
		v := reflect.ValueOf(reused.sch).Elem()
		for i := 0; i < v.NumField(); i++ {
			name, f := v.Type().Field(i).Name, v.Field(i)
			empty := f.IsZero()
			if f.Kind() == reflect.Map || f.Kind() == reflect.Slice {
				empty = f.Len() == 0
			}
			if !empty && name != "names" { // names is a scratch buffer, refilled per call
				t.Fatalf("%s: reset left simSchema.%s = %v", d, name, f)
			}
		}
	}
}

// SQL would be far worse).
func TestInstantiationExecutability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lib := NewLibrary()
	lib.Harvest(sqlparse.MustParseScript(`
CREATE TABLE t0 (c0 INT, c1 INT);
INSERT INTO t0 VALUES (1, 2);
SELECT c0 FROM t0;
`))
	inst := New(rng, lib, sqlt.DialectPostgres)
	eng := minidb.New(minidb.Config{Dialect: sqlt.DialectPostgres})

	types := sqlt.DialectPostgres.Types()
	totalStmts, totalErrs := 0, 0
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(4)
		seq := make(sqlt.Sequence, n)
		seq[0] = sqlt.CreateTable
		for j := 1; j < n; j++ {
			seq[j] = types[rng.Intn(len(types))]
		}
		tc := inst.TestCase(seq)
		if !tc.Types().Equal(seq) {
			t.Fatalf("instantiated types %v != requested %v", tc.Types(), seq)
		}
		out := eng.RunTestCase(tc)
		totalStmts += out.Executed
		totalErrs += out.Errors
	}
	rate := float64(totalErrs) / float64(totalStmts)
	if rate > 0.6 {
		t.Fatalf("statement error rate %.2f too high — dependency fixing is broken", rate)
	}
	t.Logf("error rate %.2f over %d statements", rate, totalStmts)
}

func TestInstantiateDiversity(t *testing.T) {
	// "one SQL Type Sequence will be instantiated multiple times to
	// increase the diversity" — repeated instantiation differs.
	rng := rand.New(rand.NewSource(2))
	inst := New(rng, NewLibrary(), sqlt.DialectMySQL)
	seq := sqlt.Sequence{sqlt.CreateTable, sqlt.Insert, sqlt.Select}
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		seen[inst.TestCase(seq).SQL()] = true
	}
	if len(seen) < 3 {
		t.Fatalf("only %d distinct instantiations in 10 tries", len(seen))
	}
}
