// Package minidb implements the in-memory relational DBMS that serves as the
// fuzzing target, standing in for the PostgreSQL/MySQL/MariaDB/Comdb2
// binaries of the paper's evaluation (see DESIGN.md §2 for the substitution
// argument). The engine is deliberately rich in statement-order-sensitive
// state — catalogs, rows, triggers, rewrite rules, cursors, prepared
// statements, transactions, privileges — so that SQL Type Sequences
// genuinely determine which branches execute (the property of paper Fig. 2).
package minidb

import (
	"math"
	"strconv"
	"strings"
)

// Kind tags runtime values.
type Kind uint8

// Value kinds.
const (
	KNull Kind = iota
	KInt
	KFloat
	KText
	KBool
)

// Value is one SQL runtime value.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Constructors.
func Null() Value           { return Value{K: KNull} }
func Int(v int64) Value     { return Value{K: KInt, I: v} }
func Float(v float64) Value { return Value{K: KFloat, F: v} }
func Text(s string) Value   { return Value{K: KText, S: s} }
func Bool(b bool) Value     { return Value{K: KBool, B: b} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KNull }

// String renders the value for result sets and COPY output.
func (v Value) String() string {
	switch v.K {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KText:
		return v.S
	case KBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// numeric returns the value as float64 with a flag for whether it is
// numeric-coercible.
func (v Value) numeric() (float64, bool) {
	switch v.K {
	case KInt:
		return float64(v.I), true
	case KFloat:
		return v.F, true
	case KBool:
		if v.B {
			return 1, true
		}
		return 0, true
	case KText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// Truthy evaluates the value in boolean context; NULL is not truthy.
func (v Value) Truthy() bool {
	switch v.K {
	case KBool:
		return v.B
	case KInt:
		return v.I != 0
	case KFloat:
		return v.F != 0
	case KText:
		return v.S != ""
	default:
		return false
	}
}

// kindRank orders kinds for cross-kind comparison: NULL < numbers/bools <
// text. The total order makes ORDER BY and DISTINCT deterministic.
func kindRank(k Kind) int {
	switch k {
	case KNull:
		return 0
	case KInt, KFloat, KBool:
		return 1
	default:
		return 2
	}
}

// Compare imposes a total order over values: -1, 0, or +1. NULLs compare
// lowest (useful for sorting); SQL three-valued NULL semantics are handled by
// the evaluator before comparison.
func Compare(a, b Value) int {
	ra, rb := kindRank(a.K), kindRank(b.K)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0:
		return 0
	case 1:
		fa, _ := a.numeric()
		fb, _ := b.numeric()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	default:
		return strings.Compare(a.S, b.S)
	}
}

// Equal reports SQL equality after coercion (NULL never equals anything; the
// evaluator handles the NULL case before calling Equal).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Key returns a string usable as a uniqueness key for index lookups and
// DISTINCT/GROUP BY hashing.
func (v Value) Key() string {
	switch v.K {
	case KNull:
		return "\x00N"
	case KInt:
		return "\x01" + strconv.FormatInt(v.I, 10)
	case KFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			// integral floats collide with ints, as SQL equality does
			return "\x01" + strconv.FormatInt(int64(v.F), 10)
		}
		return "\x02" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case KText:
		return "\x03" + v.S
	case KBool:
		if v.B {
			return "\x011"
		}
		return "\x010"
	default:
		return "\x04"
	}
}

// RowKey concatenates value keys for multi-column uniqueness.
func RowKey(vals []Value) string {
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteString(v.Key())
		sb.WriteByte(0x1f)
	}
	return sb.String()
}

// CoerceToColumn converts v to the storage representation of a column type,
// applying SQLite-style type affinity: INT columns store integral values,
// FLOAT columns store doubles, TEXT columns store strings, BOOLEAN columns
// store bools. Unconvertible values are stored as-is (dynamic typing), which
// mirrors the forgiving behaviour fuzzers exploit.
func CoerceToColumn(typeName string, v Value) Value {
	if v.IsNull() {
		return v
	}
	switch affinity(typeName) {
	case KInt:
		switch v.K {
		case KInt:
			return v
		case KFloat:
			if v.F == math.Trunc(v.F) {
				return Int(int64(v.F))
			}
			return v
		case KBool:
			if v.B {
				return Int(1)
			}
			return Int(0)
		case KText:
			if n, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64); err == nil {
				return Int(n)
			}
			return v
		}
	case KFloat:
		if f, ok := v.numeric(); ok {
			return Float(f)
		}
	case KText:
		return Text(v.String())
	case KBool:
		return Bool(v.Truthy())
	}
	return v
}

// affinity maps a SQL type name to a storage kind.
func affinity(typeName string) Kind {
	t := strings.ToUpper(typeName)
	switch {
	case strings.Contains(t, "INT") || strings.Contains(t, "YEAR") || strings.Contains(t, "SERIAL"):
		return KInt
	case strings.Contains(t, "FLOAT") || strings.Contains(t, "DOUBLE") ||
		strings.Contains(t, "REAL") || strings.Contains(t, "DECIMAL") ||
		strings.Contains(t, "NUMERIC"):
		return KFloat
	case strings.Contains(t, "BOOL"):
		return KBool
	default:
		return KText
	}
}
