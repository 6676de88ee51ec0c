package minidb

import (
	"reflect"
	"strconv"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestColMetaRevalidates plants wrong entries under the key a table's
// content hashes to — what a hash collision would leave there — and checks
// that both lookups rebuild the entry instead of handing it out.
func TestColMetaRevalidates(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectPostgres})
	tb := &Table{Name: "t", Cols: []Column{{Name: "a"}, {Name: "b"}}}
	want := newColMeta("t", []string{"a", "b"})
	if got := e.tableMeta(tb); !reflect.DeepEqual(got, want) {
		t.Fatalf("first lookup: %+v, want %+v", *got, *want)
	}
	if len(e.metas) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(e.metas))
	}
	var key colMetaKey
	for k := range e.metas {
		key = k
	}
	for _, wrong := range []*colMeta{
		newColMeta("u", []string{"a", "b"}),
		newColMeta("t", []string{"a", "c"}),
		newColMeta("t", []string{"a"}),
	} {
		e.metas[key] = wrong
		if got := e.tableMeta(tb); !reflect.DeepEqual(got, want) {
			t.Errorf("tableMeta handed out %+v for table t(a, b)", *got)
		}
		e.metas[key] = wrong
		if got := e.relMeta("t", []string{"a", "b"}); !reflect.DeepEqual(got, want) {
			t.Errorf("relMeta handed out %+v for t(a, b)", *got)
		}
	}
}

// TestColMetaCacheIsBounded checks that the cache never outgrows its cap:
// reaching it clears the map wholesale.
func TestColMetaCacheIsBounded(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectPostgres})
	for i := 0; i < 3*colMetaCap; i++ {
		e.relMeta("q"+strconv.Itoa(i), []string{"a"})
		if len(e.metas) > colMetaCap {
			t.Fatalf("cache holds %d entries after %d lookups, cap %d", len(e.metas), i+1, colMetaCap)
		}
	}
}
