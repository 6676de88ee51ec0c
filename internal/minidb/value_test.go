package minidb

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// randomValue generates arbitrary Values for property tests.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Int(rng.Int63n(2001) - 1000)
	case 2:
		return Float(float64(rng.Intn(4000)-2000) / 8)
	case 3:
		letters := []string{"", "a", "ab", "name1", "Z", "0", "-3"}
		return Text(letters[rng.Intn(len(letters))])
	default:
		return Bool(rng.Intn(2) == 0)
	}
}

// valueGen adapts randomValue to testing/quick.
type valueGen Value

func (valueGen) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueGen(randomValue(rng)))
}

func TestCompareTotalOrderProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}

	// reflexivity: Compare(a, a) == 0
	if err := quick.Check(func(a valueGen) bool {
		return Compare(Value(a), Value(a)) == 0
	}, cfg); err != nil {
		t.Error(err)
	}

	// antisymmetry: Compare(a,b) == -Compare(b,a)
	if err := quick.Check(func(a, b valueGen) bool {
		return Compare(Value(a), Value(b)) == -Compare(Value(b), Value(a))
	}, cfg); err != nil {
		t.Error(err)
	}

	// transitivity: a<=b && b<=c => a<=c
	if err := quick.Check(func(a, b, c valueGen) bool {
		av, bv, cv := Value(a), Value(b), Value(c)
		if Compare(av, bv) <= 0 && Compare(bv, cv) <= 0 {
			return Compare(av, cv) <= 0
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestEqualConsistentWithKey(t *testing.T) {
	// Equal values must have equal keys (the GROUP BY/DISTINCT invariant).
	if err := quick.Check(func(a, b valueGen) bool {
		av, bv := Value(a), Value(b)
		if Equal(av, bv) {
			return av.Key() == bv.Key()
		}
		return true
	}, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestCoerceIdempotent(t *testing.T) {
	types := []string{"INT", "FLOAT", "TEXT", "BOOLEAN", "VARCHAR(100)"}
	if err := quick.Check(func(a valueGen, ti uint8) bool {
		tn := types[int(ti)%len(types)]
		once := CoerceToColumn(tn, Value(a))
		twice := CoerceToColumn(tn, once)
		return once.K == twice.K && (once.IsNull() || Equal(once, twice))
	}, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestCoerceExamples(t *testing.T) {
	cases := []struct {
		tn   string
		in   Value
		want Value
	}{
		{"INT", Text("42"), Int(42)},
		{"INT", Float(3.0), Int(3)},
		{"INT", Float(3.5), Float(3.5)}, // non-integral floats stay
		{"INT", Bool(true), Int(1)},
		{"INT", Text("abc"), Text("abc")}, // unconvertible stays
		{"FLOAT", Int(2), Float(2)},
		{"TEXT", Int(7), Text("7")},
		{"BOOLEAN", Int(0), Bool(false)},
		{"VARCHAR(100)", Int(1), Text("1")},
		{"INT", Null(), Null()},
	}
	for _, c := range cases {
		got := CoerceToColumn(c.tn, c.in)
		if got.K != c.want.K || (!got.IsNull() && !Equal(got, c.want)) {
			t.Errorf("Coerce(%s, %v) = %v, want %v", c.tn, c.in, got, c.want)
		}
	}
}

func TestAffinityMapping(t *testing.T) {
	cases := map[string]Kind{
		"INT": KInt, "BIGINT": KInt, "SMALLINT": KInt, "YEAR": KInt, "SERIAL": KInt,
		"FLOAT": KFloat, "DOUBLE PRECISION": KFloat, "REAL": KFloat, "DECIMAL(10,2)": KFloat,
		"BOOLEAN": KBool,
		"TEXT":    KText, "VARCHAR(100)": KText, "CHAR(1)": KText, "BLOB": KText,
	}
	for tn, want := range cases {
		if got := affinity(tn); got != want {
			t.Errorf("affinity(%q) = %v, want %v", tn, got, want)
		}
	}
}

func TestValueStringAndTruthy(t *testing.T) {
	cases := []struct {
		v      Value
		str    string
		truthy bool
	}{
		{Null(), "NULL", false},
		{Int(0), "0", false},
		{Int(-3), "-3", true},
		{Float(2.5), "2.5", true},
		{Text(""), "", false},
		{Text("x"), "x", true},
		{Bool(true), "true", true},
		{Bool(false), "false", false},
	}
	for _, c := range cases {
		if c.v.String() != c.str {
			t.Errorf("String(%v) = %q, want %q", c.v, c.v.String(), c.str)
		}
		if c.v.Truthy() != c.truthy {
			t.Errorf("Truthy(%v) = %v, want %v", c.v, c.v.Truthy(), c.truthy)
		}
	}
}

func TestCrossKindComparison(t *testing.T) {
	// numbers compare numerically regardless of representation
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("2 == 2.0")
	}
	if Compare(Int(2), Float(2.5)) != -1 {
		t.Error("2 < 2.5")
	}
	// text compares after numbers
	if Compare(Int(999), Text("a")) != -1 {
		t.Error("numbers sort before text")
	}
	// NULL sorts first
	if Compare(Null(), Int(-1000)) != -1 {
		t.Error("NULL sorts lowest")
	}
	// numeric strings coerce for numeric comparison with numbers
	if Compare(Text("10"), Int(10)) != 1 {
		// text vs int: text ranks higher by kind, by design
		t.Error("kind ranking for text vs int")
	}
}

func TestRowKeyDisambiguates(t *testing.T) {
	a := RowKey([]Value{Text("a"), Text("b")})
	b := RowKey([]Value{Text("ab"), Text("")})
	if a == b {
		t.Fatal("row keys must not collide across column boundaries")
	}
	if RowKey([]Value{Int(1)}) == RowKey([]Value{Text("1")}) {
		t.Fatal("kind must be part of the key")
	}
	if RowKey([]Value{Int(1)}) != RowKey([]Value{Float(1.0)}) {
		t.Fatal("1 and 1.0 are SQL-equal and must share a key")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"abc", "abc", true},
		{"abc", "ABC", true}, // case-insensitive
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%", "", true},
		{"_", "", false},
		{"", "", true},
		{"", "x", false},
		{"%%x%%", "zzxzz", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

// TestNumericParseMatchesStrconv checks that parseFloat and parseInt, which
// reject some strings before calling strconv, accept exactly the strings
// strconv accepts and return its values, on every first byte strconv's
// grammar allows and on near-misses of each.
func TestNumericParseMatchesStrconv(t *testing.T) {
	inputs := []string{
		"", " ", "-", "+", ".", " 12 ", "12", "+1", "-1", ".5", "5.", "-.5",
		"1e5", "1E-5", "e5", "inf", "Inf", "+inf", "-Infinity", "infinity",
		"INFINITY", "infx", "i", "NaN", "nan", "-nan", "n", "0x1p-2", "0X1P2",
		"0x10", "0b101", "0o17", "1_000", "0x_1p0", "_1", "abc", "x' LIKE NULL",
		"1e400", "-1e400", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "1.5", "٣", "\t7", "7\n",
	}
	for _, s := range inputs {
		wantF, errF := strconv.ParseFloat(s, 64)
		if gotF, ok := parseFloat(s); ok != (errF == nil) || (ok && math.Float64bits(gotF) != math.Float64bits(wantF)) {
			t.Errorf("parseFloat(%q) = %v, %v; strconv: %v, %v", s, gotF, ok, wantF, errF)
		}
		wantI, errI := strconv.ParseInt(s, 10, 64)
		if gotI, ok := parseInt(s); ok != (errI == nil) || (ok && gotI != wantI) {
			t.Errorf("parseInt(%q) = %v, %v; strconv: %v, %v", s, gotI, ok, wantI, errI)
		}
	}
	// Every first byte: parseFloat and parseInt must agree with strconv on
	// a one-byte string and on that byte followed by "1" and by "nf".
	for c := 0; c < 256; c++ {
		for _, tail := range []string{"", "1", "nf", "nfinity", "an"} {
			s := string([]byte{byte(c)}) + tail
			_, errF := strconv.ParseFloat(s, 64)
			if _, ok := parseFloat(s); ok != (errF == nil) {
				t.Errorf("parseFloat(%q) ok=%v, strconv err=%v", s, ok, errF)
			}
			_, errI := strconv.ParseInt(s, 10, 64)
			if _, ok := parseInt(s); ok != (errI == nil) {
				t.Errorf("parseInt(%q) ok=%v, strconv err=%v", s, ok, errI)
			}
		}
	}
}
