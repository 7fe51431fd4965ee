package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
// line; they do not count toward the "Read in" column. Every alternative of
// every -run pattern in the CI workflow must also select a test of that
// command's packages (see ciRunPatterns), so a renamed test cannot drop out
// of a CI step unnoticed.
func TestEnvLedger(t *testing.T) {
	read := map[string]map[string]bool{} // variable -> files that read it
	used := map[string]map[string]bool{} // variable -> test files and CI lines that name it
	fset := token.NewFileSet()
	parseModule(t, fset, func(file string, f *ast.File) {
		into := read
		if strings.HasSuffix(file, "_test.go") {
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
	})
	ciEnvPrefixes(t, used)
	ciRunPatterns(t)

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

// parseModule parses every Go file of the module, skipping dot directories,
// and calls fn with each file's slash-separated path.
func parseModule(t *testing.T, fset *token.FileSet, fn func(file string, f *ast.File)) {
	t.Helper()
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
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
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

// noTests is the -run sentinel a benchmark-only command passes to select no
// test at all.
const noTests = "XXX"

// ciRunPatterns checks every go test command of the CI workflow that passes
// -run: each |-alternative of the pattern's top level (the part before the
// first /, which selects top-level functions) must match the name of at
// least one Test, Benchmark, Fuzz or Example function declared in the test
// files of the command's packages. A package argument is a relative path,
// and a trailing /... takes in every directory below it.
func ciRunPatterns(t *testing.T) {
	t.Helper()
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // directory -> its test functions
	for i, line := range strings.Split(string(src), "\n") {
		line = strings.TrimPrefix(strings.TrimSpace(line), "run:")
		for _, cmd := range strings.Split(line, "&&") {
			fields := strings.Fields(cmd)
			for len(fields) > 0 && envAssign.MatchString(fields[0]) {
				fields = fields[1:]
			}
			if len(fields) < 2 || fields[0] != "go" || fields[1] != "test" {
				continue
			}
			var pattern string
			var names []string
			for j := 2; j < len(fields); j++ {
				f := fields[j]
				switch {
				case f == "-run" && j+1 < len(fields):
					j++
					pattern = strings.Trim(fields[j], `'"`)
				case strings.HasPrefix(f, "-run="):
					pattern = strings.Trim(strings.TrimPrefix(f, "-run="), `'"`)
				case f == "." || strings.HasPrefix(f, "./"):
					for _, dir := range packageDirs(t, f) {
						if _, ok := funcs[dir]; !ok {
							funcs[dir] = testFuncs(t, dir)
						}
						names = append(names, funcs[dir]...)
					}
				}
			}
			if pattern == "" || pattern == noTests {
				continue
			}
			top, _, _ := strings.Cut(pattern, "/")
			for _, alt := range strings.Split(top, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -run alternative %q: %v", i+1, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml:%d: -run alternative %q selects no test in the command's packages", i+1, alt)
				}
			}
		}
	}
}

// packageDirs resolves a go command's package argument to directories.
func packageDirs(t *testing.T, arg string) []string {
	t.Helper()
	root, all := strings.CutSuffix(arg, "/...")
	root = filepath.Clean(root)
	if !all {
		return []string{root}
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFuncs lists the Test, Benchmark, Fuzz and Example functions declared
// in dir's test files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
					break
				}
			}
		}
	}
	return names
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

// docName matches a backticked dotted Go name: pkg.Name, Type.Member or
// pkg.Type.Member, with an optional call suffix.
var docName = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)((?:\.[A-Z][A-Za-z0-9_]*)+)(?:\(\))?$`)

// TestDocNames keeps the READMEs' cited Go names resolvable: every
// backticked dotted name in README.md and benchmark/README.md whose
// segments after the first are exported must name a declaration of the
// module. The first segment is a module package (omp.Config.FromEnv, or
// uts.CountGLT for a method of one of the package's types), a type
// (TC.Hunt) or a receiver spelled as its type in lower case (tc.Barrier for
// TC.Barrier). Names led by a standard-library package (runtime.Gosched,
// sync.Mutex) are skipped, and so are file names and metric names, whose
// segments are not exported.
func TestDocNames(t *testing.T) {
	decls := moduleDecls(t)
	for _, doc := range []string{"README.md", "benchmark/README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				name := docName.FindStringSubmatch(m[1])
				if name == nil {
					continue
				}
				if !decls.resolves(name[1], strings.Split(name[2][1:], ".")) {
					t.Errorf("%s:%d: `%s` names no declaration in the module", doc, i+1, m[1])
				}
			}
		}
	}
}

// declIndex is the module's non-test declarations: top-level names and
// methods by package name, and members (methods, struct fields, interface
// methods) by type name, each under "pkg.Type" and under the bare "Type".
type declIndex struct {
	top     map[string]map[string]bool
	methods map[string]map[string]bool
	members map[string]map[string]bool
	types   map[string]string // lower-cased type name -> type name
}

func (d declIndex) resolves(first string, rest []string) bool {
	if top, ok := d.top[first]; ok {
		switch len(rest) {
		case 1:
			return top[rest[0]] || d.methods[first][rest[0]]
		case 2:
			return d.members[first+"."+rest[0]][rest[1]]
		}
		return false
	}
	typ := first
	if first[0] >= 'a' && first[0] <= 'z' {
		if _, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", first)); err == nil {
			return true // a standard-library package
		}
		if typ = d.types[first]; typ == "" {
			return true // a package outside the module
		}
	}
	return len(rest) == 1 && d.members[typ][rest[0]]
}

// moduleDecls parses every non-test Go file of the module into a declIndex.
func moduleDecls(t *testing.T) declIndex {
	t.Helper()
	d := declIndex{
		top:     map[string]map[string]bool{},
		methods: map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		types:   map[string]string{},
	}
	parseModule(t, token.NewFileSet(), func(file string, f *ast.File) {
		if strings.HasSuffix(file, "_test.go") {
			return
		}
		pkg := f.Name.Name
		if d.top[pkg] == nil {
			d.top[pkg] = map[string]bool{}
		}
		member := func(typ, name string) {
			note(d.members, pkg+"."+typ, name)
			note(d.members, typ, name)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[pkg][decl.Name.Name] = true
					continue
				}
				member(recvType(decl.Recv.List[0].Type), decl.Name.Name)
				note(d.methods, pkg, decl.Name.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[pkg][n.Name] = true
						}
					case *ast.TypeSpec:
						typ := spec.Name.Name
						d.top[pkg][typ] = true
						d.types[strings.ToLower(typ)] = typ
						var fields *ast.FieldList
						switch st := spec.Type.(type) {
						case *ast.StructType:
							fields = st.Fields
						case *ast.InterfaceType:
							fields = st.Methods
						}
						if fields == nil {
							continue
						}
						for _, fld := range fields.List {
							for _, n := range fld.Names {
								member(typ, n.Name)
							}
							if len(fld.Names) == 0 {
								member(typ, recvType(fld.Type)) // embedded
							}
						}
					}
				}
			}
		}
	})
	return d
}

// recvType is the type name of a receiver or embedded field expression:
// T, *T, T[P], pkg.T.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}
