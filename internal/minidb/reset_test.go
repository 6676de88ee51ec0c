package minidb

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// dirtyScript touches every Catalog map and every session field. Some
// statements exist in only one dialect family (PRAGMA in Comdb2, USE in
// MySQL/MariaDB, rules and LISTEN in PostgreSQL), so TestResetIsComplete
// runs it in every dialect and requires the union of the fields it dirtied
// to be the whole struct. Statements a dialect rejects just error.
const dirtyScript = `
CREATE TABLE t1 (a INT PRIMARY KEY, b TEXT);
INSERT INTO t1 VALUES (1, 'x');
CREATE TABLE log (m INT);
SELECT t1.a FROM t1 JOIN log ON t1.a = log.m ORDER BY t1.a;
CREATE INDEX i1 ON t1 (b);
CREATE VIEW v1 AS SELECT a FROM t1;
CREATE TRIGGER tg AFTER INSERT ON t1 FOR EACH ROW INSERT INTO log VALUES (1);
CREATE RULE ru AS ON DELETE TO log DO INSTEAD NOTHING;
CREATE SEQUENCE s1;
CREATE FUNCTION f1(x) RETURNS INT AS (x + 1);
CREATE PROCEDURE p1() AS INSERT INTO log VALUES (2);
CREATE DOMAIN pos AS INT CHECK (VALUE > 0);
CREATE TYPE mood AS ENUM ('a', 'b');
CREATE ROLE r1;
GRANT ALL ON t1 TO r1;
CREATE SCHEMA app;
CREATE EXTENSION pgcrypto;
CREATE DATABASE db1;
COMMENT ON TABLE t1 IS 'c';
SET x = 1;
PRAGMA foreign_keys = 1;
ALTER SYSTEM SET max_connections = 10;
PREPARE q AS SELECT 1;
DECLARE c1 CURSOR FOR SELECT a FROM t1;
LISTEN ch;
NOTIFY ch;
SET TRANSACTION ISOLATION LEVEL SERIALIZABLE;
USE db1;
SET ROLE r1;
BEGIN;
INSERT INTO t1 VALUES (2, 'y');
SAVEPOINT sp0;
SAVEPOINT sp1;
RELEASE SAVEPOINT sp1;
`

// fieldDiff returns the names of the fields in which the structs behind the
// pointers got and want differ. It reads unexported fields too, and treats
// an empty slice as equal to a nil one, since reset keeps slice storage.
func fieldDiff(got, want any) []string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	var diff []string
	for i := 0; i < g.NumField(); i++ {
		gf, wf := readable(g.Field(i)), readable(w.Field(i))
		if gf.Kind() == reflect.Slice && gf.Len() == 0 && wf.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(gf.Interface(), wf.Interface()) {
			diff = append(diff, g.Type().Field(i).Name)
		}
	}
	return diff
}

// readable returns an addressable field with its read-only flag dropped.
func readable(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// assertFresh fails unless the engine's database state equals a new
// engine's, with empty transaction stacks.
func assertFresh(t *testing.T, e *Engine) {
	t.Helper()
	if d := fieldDiff(e.cat, NewCatalog()); len(d) > 0 {
		t.Errorf("catalog fields not reset: %v", d)
	}
	if !reflect.DeepEqual(e.cat, NewCatalog()) {
		t.Errorf("catalog differs from NewCatalog()")
	}
	if d := fieldDiff(e.sess, newSession()); len(d) > 0 {
		t.Errorf("session fields not reset: %v", d)
	}
	if len(e.txnStack) != 0 || len(e.spNames) != 0 {
		t.Errorf("transaction stacks not empty: %d snapshots, %d names", len(e.txnStack), len(e.spNames))
	}
	for _, c := range e.txnStack[:cap(e.txnStack)] {
		if c != nil {
			t.Errorf("reset left a snapshot reachable in txnStack's backing array")
		}
	}
	// The result arena is rewound and zeroed, so no earlier test case's
	// rows stay reachable through it.
	if e.results.used != 0 {
		t.Errorf("result arena not rewound: %d results in use", e.results.used)
	}
	for i := range e.results.block {
		if !reflect.DeepEqual(e.results.block[i], Result{}) {
			t.Errorf("result arena slot %d still holds %+v", i, e.results.block[i])
		}
	}
	// The INSERT scratch stacks are empty, and popping zeroed the values
	// and rows they held.
	if n := len(e.insTargets) + len(e.insVals) + len(e.insRows); n != 0 {
		t.Errorf("INSERT scratch stacks hold %d entries", n)
	}
	for _, v := range e.insVals[:cap(e.insVals)] {
		if v != (Value{}) {
			t.Errorf("INSERT value stack still holds %v", v)
		}
	}
	for _, r := range e.insRows[:cap(e.insRows)] {
		if r != nil {
			t.Errorf("INSERT row stack still holds %v", r)
		}
	}
	// Machines, program slots and join scratch are statement-scoped.
	if err := checkEvalScratch(e); err != nil {
		t.Error(err)
	}
}

// TestResetIsComplete dirties every catalog map and session field, then
// either leaves a transaction open (with a released savepoint's snapshot
// still in txnStack's backing array) or rolls it back, and checks that the
// next test case starts from exactly a new engine's state, with the result
// arena rewound and zeroed, the INSERT scratch stacks empty, and no machine,
// program slot or join scratch still holding a statement's state. Because the
// check walks the struct fields, a field added later that reset forgets
// fails here, and so does one the dirty script forgets to touch.
func TestResetIsComplete(t *testing.T) {
	dirty := map[string]bool{}
	variants := []struct{ name, tail string }{
		{"open", ""},
		// ROLLBACK leaves e.cat set to the former BEGIN snapshot.
		{"rolled-back", "ROLLBACK;"},
	}
	for _, d := range sqlt.Dialects() {
		for _, v := range variants {
			t.Run(d.String()+"/"+v.name, func(t *testing.T) {
				e := New(Config{Dialect: d})
				e.RunTestCase(sqlparse.MustParseScript(dirtyScript + v.tail))
				if e.inTxn() != (v.tail == "") {
					t.Fatalf("dirty script left inTxn=%v", e.inTxn())
				}
				if e.results.used == 0 || len(e.insVals) != 0 || cap(e.insVals) == 0 {
					t.Fatalf("dirty script left %d arena results and INSERT value stack len %d cap %d; want results, an empty stack with storage",
						e.results.used, len(e.insVals), cap(e.insVals))
				}
				if len(e.machines.block) == 0 || cap(e.progStack) == 0 || len(e.joins) == 0 {
					t.Fatalf("dirty script never used the machine arena (%d), program stack (cap %d) or join scratch (%d)",
						len(e.machines.block), cap(e.progStack), len(e.joins))
				}
				for _, f := range fieldDiff(e.cat, NewCatalog()) {
					dirty["Catalog."+f] = true
				}
				for _, f := range fieldDiff(e.sess, newSession()) {
					dirty["session."+f] = true
				}
				e.RunTestCase(nil)
				assertFresh(t, e)
			})
		}
	}
	var missed []string
	for _, s := range []struct {
		prefix string
		typ    reflect.Type
	}{{"Catalog.", reflect.TypeOf(Catalog{})}, {"session.", reflect.TypeOf(session{})}} {
		for i := 0; i < s.typ.NumField(); i++ {
			if name := s.prefix + s.typ.Field(i).Name; !dirty[name] {
				missed = append(missed, name)
			}
		}
	}
	if len(missed) > 0 {
		t.Errorf("dirty script never touched %v; extend it so reset is tested on them", missed)
	}
}
