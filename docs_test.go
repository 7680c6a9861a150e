package powerplay_test

import (
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
