package powerplay_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
