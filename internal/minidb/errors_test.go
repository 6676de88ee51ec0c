package minidb

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// TestErrorsRenderLikeSprintf pins the text of every lazy and sentinel
// execution error to what the eager errValue rendered before them: the
// reset oracle and users compare error strings. It finds every errNamed
// and errConst call in the package source, so a new site is covered the
// moment it is written.
func TestErrorsRenderLikeSprintf(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Arguments with quotes, verbs and non-ASCII, where %q and %s differ.
	args := []string{"t1", `we"ird`, "50%", "naïve", ""}
	named, consts := 0, 0
	for _, f := range pkgs["minidb"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || (fn.Name != "errNamed" && fn.Name != "errConst") {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: %s format is not a string literal", fset.Position(call.Pos()), fn.Name)
				return true
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			if fn.Name == "errConst" {
				consts++
				if got, want := errConst(format).Error(), fmt.Sprintf(format); got != want {
					t.Errorf("%s: sentinel renders %q, Sprintf %q", fset.Position(call.Pos()), got, want)
				}
				return true
			}
			named++
			if verbs := strings.Count(format, "%q") + strings.Count(format, "%s"); verbs != 1 || strings.Count(format, "%") != 1 {
				t.Errorf("%s: errNamed format %q must have exactly one %%q or %%s verb", fset.Position(call.Pos()), format)
			}
			for _, a := range args {
				if got, want := errNamed(format, a).Error(), fmt.Sprintf(format, a); got != want {
					t.Errorf("%s: errNamed(%q, %q) renders %q, Sprintf %q", fset.Position(call.Pos()), format, a, got, want)
				}
			}
			return true
		})
	}
	if named == 0 || consts == 0 {
		t.Fatalf("found %d errNamed and %d errConst sites; the source scan is broken", named, consts)
	}
	t.Logf("%d errNamed sites, %d sentinels", named, consts)
}
