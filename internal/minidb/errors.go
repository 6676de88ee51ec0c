package minidb

import "fmt"

// ExecError is a recoverable SQL execution error (semantic errors, constraint
// violations). It corresponds to the server returning an error to the
// client; fuzzing continues with the next statement.
//
// About a third of fuzzed statements fail, and no fuzz-loop caller reads an
// error's text, so the hot sites defer rendering it: errNamed records a
// one-verb format and its string argument, and Error formats them on
// demand. Constant messages are package-level sentinels and cost nothing.
// Either way Error returns exactly what fmt.Sprintf over the same format
// and arguments returns.
type ExecError struct {
	msg    string // the text, when it was rendered up front
	format string // otherwise a one-verb format, rendered over arg on demand
	arg    string
}

// Error implements error.
func (e *ExecError) Error() string {
	if e.format == "" {
		return e.msg
	}
	return fmt.Sprintf(e.format, e.arg)
}

// errValue builds an execution error, rendering its text now. Sites on the
// fuzz loop's hot paths use errNamed or a sentinel instead.
func errValue(format string, args ...any) error {
	return &ExecError{msg: fmt.Sprintf(format, args...)}
}

// errNamed builds an execution error whose format has exactly one %q or %s
// verb, taking name. The text is rendered only if someone asks for it.
func errNamed(format, name string) error {
	return &ExecError{format: format, arg: name}
}

// errConst builds a sentinel for a constant message, which must contain no
// formatting verb (TestErrorsRenderLikeSprintf checks every sentinel).
func errConst(msg string) *ExecError { return &ExecError{msg: msg} }

// Sentinels for the constant execution errors. Callers return them as they
// are; nothing may modify one.
var (
	errDivByZero            = errConst("division by zero")
	errExprTooDeep          = errConst("expression nesting too deep")
	errQueryTooDeep         = errConst("query nesting too deep")
	errViewTooDeep          = errConst("view nesting too deep")
	errWithTooDeep          = errConst("WITH nesting too deep")
	errStarInValue          = errConst("* is not valid in this context")
	errStarWithGroupBy      = errConst("* is not valid with GROUP BY")
	errAbsNonNumeric        = errConst("ABS of non-numeric value")
	errAvgNonNumeric        = errConst("AVG of non-numeric value")
	errSumNonNumeric        = errConst("SUM of non-numeric value")
	errRoundNonNumeric      = errConst("ROUND of non-numeric value")
	errRoundArity           = errConst("ROUND expects 1 or 2 arguments")
	errSubstrArity          = errConst("SUBSTR expects 2 or 3 arguments")
	errGreatestNoArgs       = errConst("GREATEST/LEAST need at least one argument")
	errExpectedInteger      = errConst("expected integer expression")
	errCommentNeedsColumn   = errConst("COMMENT ON COLUMN needs table.column")
	errMergeArity           = errConst("MERGE insert arity mismatch")
	errTxnInProgress        = errConst("a transaction is already in progress")
	errNoTxn                = errConst("no transaction in progress")
	errSavepointNeedsTxn    = errConst("SAVEPOINT requires a transaction")
	errNotNullNeedsDefault  = errConst("cannot add NOT NULL column without default to non-empty table")
	errUniqueIndexDuplicate = errConst("cannot create unique index: duplicate key")
	errDropCurrentDatabase  = errConst("cannot drop the current database")
	errDropCurrentRole      = errConst("cannot drop the current role")
	errDropLastColumn       = errConst("cannot drop the last column")
	errUniqueViolation      = errConst("duplicate key value violates unique constraint")
	errTableCheckFailed     = errConst("table check constraint failed")
	errNoColumns            = errConst("table must have at least one column")
)
