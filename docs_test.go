package powerplay_test

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
	"strings"
	"testing"
)

// commandDocs are the documents whose commands a reader is expected to
// run as written.  CHANGES.md and ROADMAP.md are left out: they are
// history and plans, so they may name commands that are gone or not
// yet written.
var commandDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TUTORIAL.md", "API.md", "LIBRARY.md"}

var (
	// A backticked make invocation; the target may follow a line break.
	makeRef  = regexp.MustCompile("`make\\s+([^\\s`]+)")
	goRunRef = regexp.MustCompile("go run \\./cmd/([^\\s/`]+)")
	makeRule = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	phonyRow = regexp.MustCompile(`(?m)^\.PHONY:(.*)$`)
)

// TestDocCommandsExist fails when a document tells the reader to run a
// make target the Makefile does not define, or a command under cmd/
// that does not exist, and when a Makefile target is missing from
// .PHONY.
func TestDocCommandsExist(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	phony := map[string]bool{}
	for _, m := range phonyRow.FindAllStringSubmatch(string(makefile), -1) {
		for _, name := range strings.Fields(m[1]) {
			phony[name] = true
		}
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
		if !phony[m[1]] {
			t.Errorf("Makefile: target %q is missing from .PHONY", m[1])
		}
	}

	refs := 0
	for _, doc := range commandDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeRef.FindAllStringSubmatch(string(b), -1) {
			refs++
			if !targets[m[1]] {
				t.Errorf("%s: `make %s` names no Makefile target", doc, m[1])
			}
		}
		for _, m := range goRunRef.FindAllStringSubmatch(string(b), -1) {
			refs++
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s: `go run ./cmd/%s` names no cmd/ directory", doc, m[1])
			}
		}
	}
	if refs == 0 {
		t.Fatal("no command references found: the patterns no longer match the documents")
	}
}

var (
	// A go test -run or -fuzz flag and its (possibly quoted) pattern.
	runFlag  = regexp.MustCompile(`(?:^|\s)-(?:run|fuzz)[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// TestCIRunPatternsMatch fails when a -run or -fuzz pattern in CI or
// the Makefile has an alternative that matches no Test, Fuzz or
// Benchmark function: after a rename such a step still passes, but
// runs nothing.  "^$" (run no tests) is exempt, and the Makefile's
// "$$" is make's escape for "$".
func TestCIRunPatternsMatch(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDecl.FindAllStringSubmatch(string(b), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range runFlag.FindAllStringSubmatch(string(b), -1) {
			patterns++
			pattern := strings.ReplaceAll(m[1]+m[2]+m[3], "$$", "$")
			for _, alt := range strings.Split(pattern, "|") {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: pattern %q: %v", file, alt, err)
					continue
				}
				matched := false
				for _, f := range funcs {
					if re.MatchString(f) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s: -run/-fuzz alternative %q matches no test function", file, alt)
				}
			}
		}
	}
	if patterns == 0 {
		t.Fatal("no -run or -fuzz patterns found: the pattern no longer matches CI or the Makefile")
	}
}

// settingTypes are the settings structs whose every exported field
// must be set by some program file, by declaring directory.
var settingTypes = map[string]string{
	"web.Config":    "internal/web",
	"web.Remote":    "internal/web",
	"store.Options": "internal/store",
	"shard.Config":  "internal/shard",
}

// TestOptionsHaveCallers fails when an exported field of a settings
// type is set by no non-test Go file of the module or of perfbench/: a
// setting only tests set, or nothing sets, is a path the shipped
// program never takes.
func TestOptionsHaveCallers(t *testing.T) {
	for _, msg := range unsetSettings(programFiles(t)) {
		t.Error(msg)
	}
}

// TestOptionsHaveCallersRejectsLooseSets: a field with a common name
// is not counted as set by an assignment in a package that cannot see
// the settings type, nor by a literal whose type the checker cannot
// name; an elided element type of a typed slice literal still counts.
func TestOptionsHaveCallersRejectsLooseSets(t *testing.T) {
	src := map[string]string{
		"internal/web/config.go": `package web
type Config struct { Name string; Key int; Timeout int }
type Remote struct { URL string }
var _ = Remote{URL: ""}`,
		"internal/store/store.go": `package store
type Options struct { Policy int }
var _ = Options{Policy: 1}`,
		"internal/shard/router.go": `package shard
type Config struct { Key int }
var _ = []Config{{Key: 1}}`,
		"other/other.go": `package other
type T struct { Name string }
func f(x *T) { x.Name = ""; _ = []T{{Key: 1}}; _ = map[string]struct{ Timeout int }{"a": {Timeout: 1}} }`,
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for path, s := range src {
		f, err := parser.ParseFile(fset, path, s, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = f
	}
	got := strings.Join(unsetSettings(files), "\n")
	for _, field := range []string{"web.Config.Name", "web.Config.Key", "web.Config.Timeout"} {
		if !strings.Contains(got, field+" ") {
			t.Errorf("%s is set by no program file, but the checker passed it:\n%s", field, got)
		}
	}
	for _, field := range []string{"web.Remote.URL", "store.Options.Policy", "shard.Config.Key"} {
		if strings.Contains(got, field+" ") {
			t.Errorf("%s is set, but the checker flagged it:\n%s", field, got)
		}
	}
}

// unsetSettings names every exported field of settingTypes that no
// file in files (keyed by slash path relative to the module root)
// sets.  A field counts as set by a composite-literal key on its type
// (directly, through a type alias such as the facade's ServerConfig,
// or as the elided element type of a slice, array or map literal), or
// by an assignment to a selector of its name in a file of the type's
// own package or of one that imports it.
func unsetSettings(files map[string]*ast.File) []string {
	qualified := func(pkg string, typ ast.Expr) string {
		if st, ok := typ.(*ast.StarExpr); ok {
			typ = st.X
		}
		switch tt := typ.(type) {
		case *ast.Ident:
			return pkg + "." + tt.Name
		case *ast.SelectorExpr:
			if x, ok := tt.X.(*ast.Ident); ok {
				return x.Name + "." + tt.Sel.Name
			}
		}
		return ""
	}

	// The settings' exported fields, and every type alias.
	fields := map[string][]string{}
	aliases := map[string]string{}
	for path, f := range files {
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				name := pkg + "." + ts.Name.Name
				if ts.Assign.IsValid() {
					aliases[name] = qualified(pkg, ts.Type)
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || settingTypes[name] != filepath.ToSlash(filepath.Dir(path)) {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						if n.IsExported() {
							fields[name] = append(fields[name], n.Name)
						}
					}
				}
			}
		}
	}

	// Every literal key and assigned selector, as "pkg.Type.Field".
	set := map[string]bool{}
	for path, f := range files {
		pkg := f.Name.Name
		// The settings types this file can name.
		var visible []string
		for typ, dir := range settingTypes {
			if filepath.ToSlash(filepath.Dir(path)) == dir {
				visible = append(visible, typ)
				continue
			}
			for _, imp := range f.Imports {
				if strings.HasSuffix(strings.Trim(imp.Path.Value, "\""), "/"+dir) {
					visible = append(visible, typ)
				}
			}
		}
		elided := map[*ast.CompositeLit]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ, ok := elided[n]
				if !ok && n.Type != nil {
					typ = qualified(pkg, n.Type)
				}
				if a, ok := aliases[typ]; ok {
					typ = a
				}
				var elem ast.Expr
				switch tt := n.Type.(type) {
				case *ast.ArrayType:
					elem = tt.Elt
				case *ast.MapType:
					elem = tt.Value
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok && typ != "" && elem == nil {
							set[typ+"."+k.Name] = true
						}
						el = kv.Value
					}
					if cl, ok := el.(*ast.CompositeLit); ok && cl.Type == nil && elem != nil {
						elided[cl] = qualified(pkg, elem)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						for _, typ := range visible {
							set[typ+"."+sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}

	var unset []string
	types := make([]string, 0, len(settingTypes))
	for typ := range settingTypes {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		if len(fields[typ]) == 0 {
			unset = append(unset, fmt.Sprintf("%s: no exported fields found; is the type still declared in %s?", typ, settingTypes[typ]))
		}
		for _, name := range fields[typ] {
			if !set[typ+"."+name] {
				unset = append(unset, fmt.Sprintf("%s.%s is set by no program file: make its default a constant, or give it a flag", typ, name))
			}
		}
	}
	return unset
}

// exportAllowlist names the exported functions and methods that stay
// with no caller in a program file, each with the reason it stays.
// Keys are "dir.Func", "dir.Type.Method" or, for a whole package, the
// dir, relative to the module root.
var exportAllowlist = map[string]string{
	"internal/faultnet":                 "test infrastructure: the fault-injecting proxy the internal/web resilience and federation tests drive",
	"internal/core/model/formtest":      "test infrastructure: the sweep-form-against-Evaluate oracle the model packages' tests share",
	"internal/store.Store.SetSink":      "fault-injection hook the store and internal/web durability tests use to tear journal writes",
	"internal/expr.MustCompile":         "expression constants in the expr tests and the root package's benchmarks",
	"internal/storage.DirectPathCharge": "Veendrick's direct-path equation (DESIGN.md system 5), which no library model folds into EQ 1 yet",
}

// stdInterfaceMethods are method names that satisfy a standard-library
// interface: the standard library calls them, not a program file.
var stdInterfaceMethods = map[string]string{
	"Error":         "error",
	"Unwrap":        "errors.Unwrap",
	"String":        "fmt.Stringer",
	"MarshalJSON":   "json.Marshaler",
	"UnmarshalJSON": "json.Unmarshaler",
	"Set":           "flag.Value",
	"Get":           "httputil.BufferPool",
	"Put":           "httputil.BufferPool",
	"ServeHTTP":     "http.Handler",
	"RoundTrip":     "http.RoundTripper",
	"WriteHeader":   "http.ResponseWriter",
	"Write":         "io.Writer",
	"Flush":         "http.Flusher",
}

// TestExportsHaveCallers fails when an exported function or method is
// referred to by no non-test Go file of the module, perfbench/ or
// examples/ other than its own declaration: an export only tests use,
// or nothing uses, is code the shipped program does not need.  The
// facade (powerplay.go) is exempt, as are methods that satisfy an
// interface; anything else that stays is on exportAllowlist.
func TestExportsHaveCallers(t *testing.T) {
	for _, msg := range deadExports(programFiles(t), exportAllowlist) {
		t.Error(msg)
	}
}

// TestExportsHaveCallersRejectsDeadExports: the checker flags an
// uncalled exported function, an uncalled exported method and a
// function only a test calls, and passes a facade entry, a method that
// satisfies an interface, and a function only perfbench/ calls.
func TestExportsHaveCallersRejectsDeadExports(t *testing.T) {
	src := map[string]string{
		"powerplay.go": `package powerplay
import "powerplay/internal/a"
func Facade() { a.Used() }`,
		"internal/a/a.go": `package a
type Shape interface{ Area() float64 }
type T struct{ Dead int }
func Used() { var t T; t.Called() }
func Dead() { Dead() }
func TestOnly() {}
func BenchOnly() {}
func (T) Called() {}
func (T) DeadMethod() {}
func (T) Area() float64 { return 0 }
func (T) String() string { return "" }`,
		"internal/a/a_test.go": `package a
func init() { TestOnly(); var t T; t.DeadMethod() }`,
		"internal/b/b.go": `package b
type U struct{}
func (U) DeadMethod() {}
func use(u U) { _ = struct{ Dead int }{Dead: 1} }`,
		"perfbench/main.go": `package main
import "powerplay/internal/a"
func main() { a.BenchOnly() }`,
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for path, s := range src {
		f, err := parser.ParseFile(fset, path, s, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = f
	}
	got := deadExports(files, map[string]string{"internal/a.Gone": "stale"})
	want := []string{
		"exportAllowlist: internal/a.Gone is declared nowhere",
		"internal/a.Dead has no caller in a program file",
		"internal/a.T.DeadMethod has no caller in a program file",
		"internal/a.TestOnly has no caller in a program file",
		"internal/b.U.DeadMethod has no caller in a program file",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// programFiles parses every non-test Go file under the module root,
// perfbench/ and examples/ included, keyed by slash path.
func programFiles(t *testing.T) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// deadExports names every exported function and method declared in
// files (keyed by slash path relative to the module root) that no
// other non-test file refers to, and every allow entry that names no
// declaration.  Without type information a reference is matched by
// name: a function by an identifier in its own package or a selector
// on an import of it, a method by a selector of its name in a file of
// its package, of one that imports it, or of one that imports such an
// importer (the facade's type aliases).  A reference inside the
// declaration's own body (recursion) does not count.
func deadExports(files map[string]*ast.File, allow map[string]string) []string {
	const module = "powerplay"
	type decl struct {
		key, dir, name string
		method         bool
		fn             *ast.FuncDecl
	}
	// A reference is a position in the one FileSet all files share,
	// so no two files' references overlap.
	type ref struct {
		file string
		pos  token.Pos
	}
	dirOf := func(path string) string { return filepath.ToSlash(filepath.Dir(path)) }
	program := func(path string) bool { return !strings.HasSuffix(path, "_test.go") }

	pkgName := map[string]string{}
	imports := map[string]map[string]string{} // file -> local name -> dir
	importedDirs := map[string]map[string]bool{}
	ifaceMethods := map[string]bool{}
	for path, f := range files {
		if !program(path) {
			continue
		}
		pkgName[dirOf(path)] = f.Name.Name
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
	}
	for path, f := range files {
		if !program(path) {
			continue
		}
		imports[path] = map[string]string{}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			dir, local := "", p[strings.LastIndex(p, "/")+1:]
			switch {
			case p == module:
				dir = "."
			case strings.HasPrefix(p, module+"/"):
				dir = strings.TrimPrefix(p, module+"/")
				local = pkgName[dir]
			}
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[path][local] = dir
			if dir == "" {
				continue
			}
			if importedDirs[dirOf(path)] == nil {
				importedDirs[dirOf(path)] = map[string]bool{}
			}
			importedDirs[dirOf(path)][dir] = true
		}
	}
	// sees reports whether a file can hold a value of a type declared
	// in dir without type information: its own package, a direct
	// import, or an import of a direct import.
	sees := func(path, dir string) bool {
		own := dirOf(path)
		if own == dir {
			return true
		}
		for _, d := range imports[path] {
			if d != "" && (d == dir || importedDirs[d][dir]) {
				return true
			}
		}
		return false
	}

	var decls []decl
	funcRefs := map[string][]ref{}   // "dir.Func"
	methodRefs := map[string][]ref{} // "Method"
	for path, f := range files {
		if !program(path) {
			continue
		}
		dir := dirOf(path)
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
				if !n.Name.IsExported() || path == "powerplay.go" {
					return true
				}
				if n.Recv == nil {
					decls = append(decls, decl{dir + "." + n.Name.Name, dir, n.Name.Name, false, n})
					return true
				}
				if _, ok := stdInterfaceMethods[n.Name.Name]; ok || ifaceMethods[n.Name.Name] {
					return true
				}
				recv := n.Recv.List[0].Type
				if st, ok := recv.(*ast.StarExpr); ok {
					recv = st.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					decls = append(decls, decl{dir + "." + id.Name + "." + n.Name.Name, dir, n.Name.Name, true, n})
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				r := ref{path, n.Sel.Pos()}
				if x, ok := n.X.(*ast.Ident); ok {
					if d, ok := imports[path][x.Name]; ok {
						// A qualified name, not a method.
						funcRefs[d+"."+n.Sel.Name] = append(funcRefs[d+"."+n.Sel.Name], r)
						return true
					}
				}
				methodRefs[n.Sel.Name] = append(methodRefs[n.Sel.Name], r)
			case *ast.Ident:
				if !skip[n] {
					funcRefs[dir+"."+n.Name] = append(funcRefs[dir+"."+n.Name], ref{path, n.Pos()})
				}
			}
			return true
		})
	}

	var dead []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		declared[d.dir] = true
		if _, ok := allow[d.key]; ok {
			continue
		}
		if _, ok := allow[d.dir]; ok {
			continue
		}
		used := false
		refs := funcRefs[d.key]
		if d.method {
			refs = methodRefs[d.name]
		}
		for _, r := range refs {
			if (r.pos >= d.fn.Pos() && r.pos < d.fn.End()) || (d.method && !sees(r.file, d.dir)) {
				continue
			}
			used = true
			break
		}
		if !used {
			dead = append(dead, d.key+" has no caller in a program file")
		}
	}
	for key := range allow {
		if !declared[key] {
			dead = append(dead, "exportAllowlist: "+key+" is declared nowhere")
		}
	}
	sort.Strings(dead)
	return dead
}
