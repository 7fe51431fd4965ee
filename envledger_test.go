package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEnvLedger keeps README.md's "Environment variables" table honest: it
// parses every non-test Go file of the module and collects the literal name
// passed to each os.Getenv, os.LookupEnv and envBool call, then fails on any
// variable the code reads but the table omits, any row the code does not
// read, and any row whose "Read in" column names the wrong files. Only the
// envBool helpers may read a variable whose name is not a literal. Test files
// and the NAME= prefixes of the CI workflow's go commands must also name only
// rows of the table, so a dropped variable cannot linger in a test or a CI
// line; they do not count toward the "Read in" column.
func TestEnvLedger(t *testing.T) {
	read := map[string]map[string]bool{} // variable -> files that read it
	used := map[string]map[string]bool{} // variable -> test files and CI lines that name it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(path)
		into := read
		if strings.HasSuffix(path, "_test.go") {
			into = used
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 || !isEnvRead(call.Fun) {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					if fn == nil || fn.Name.Name != "envBool" {
						t.Errorf("%s: environment read with a non-literal name", fset.Position(call.Pos()))
					}
					return true
				}
				name, _ := strconv.Unquote(lit.Value)
				note(into, name, file)
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ciEnvPrefixes(t, used)

	listed := readmeEnvTable(t)
	for name, files := range read {
		want, ok := listed[name]
		if !ok {
			t.Errorf("%s is read (%s) but has no row in README.md's environment table", name, strings.Join(keys(files), ", "))
			continue
		}
		if got, exp := strings.Join(keys(want), ", "), strings.Join(keys(files), ", "); got != exp {
			t.Errorf("README.md says %s is read in %s; the code reads it in %s", name, got, exp)
		}
	}
	for name, where := range used {
		if _, ok := listed[name]; !ok {
			t.Errorf("%s is named in %s but has no row in README.md's environment table", name, strings.Join(keys(where), ", "))
		}
	}
	for name := range listed {
		if _, ok := read[name]; !ok {
			t.Errorf("README.md's environment table lists %s, which no code reads", name)
		}
	}
}

func note(m map[string]map[string]bool, name, where string) {
	if m[name] == nil {
		m[name] = map[string]bool{}
	}
	m[name][where] = true
}

var envAssign = regexp.MustCompile(`^([A-Z][A-Z0-9_]*)=`)

// ciEnvPrefixes notes in used the NAME of every NAME=value prefix of a go
// command in the CI workflow, as "ci.yml:<line>".
func ciEnvPrefixes(t *testing.T, used map[string]map[string]bool) {
	t.Helper()
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(src), "\n") {
		line = strings.TrimPrefix(strings.TrimSpace(line), "run:")
		for _, cmd := range strings.Split(line, "&&") {
			var names []string
			fields := strings.Fields(cmd)
			for len(fields) > 0 {
				m := envAssign.FindStringSubmatch(fields[0])
				if m == nil {
					break
				}
				names = append(names, m[1])
				fields = fields[1:]
			}
			if len(fields) == 0 || fields[0] != "go" {
				continue
			}
			for _, name := range names {
				note(used, name, fmt.Sprintf("ci.yml:%d", i+1))
			}
		}
	}
}

// isEnvRead reports whether fun is os.Getenv, os.LookupEnv or envBool.
func isEnvRead(fun ast.Expr) bool {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name == "envBool"
	case *ast.SelectorExpr:
		pkg, ok := f.X.(*ast.Ident)
		return ok && pkg.Name == "os" && (f.Sel.Name == "Getenv" || f.Sel.Name == "LookupEnv")
	}
	return false
}

var backticked = regexp.MustCompile("`([^`]+)`")

// readmeEnvTable returns the rows of README.md's "Environment variables"
// table: variable -> the .go files its "Read in" column names.
func readmeEnvTable(t *testing.T) map[string]map[string]bool {
	t.Helper()
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[string]bool{}
	in := false
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = line == "## Environment variables"
			continue
		}
		if !in || !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 5 {
			t.Fatalf("malformed environment table row: %s", line)
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if rows[name] != nil {
			t.Errorf("README.md's environment table lists %s twice", name)
		}
		rows[name] = map[string]bool{}
		for _, m := range backticked.FindAllStringSubmatch(cells[3], -1) {
			rows[name][m[1]] = true
		}
	}
	if len(rows) == 0 {
		t.Fatal(`README.md has no "## Environment variables" table`)
	}
	return rows
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
