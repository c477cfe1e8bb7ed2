package distws

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// resolvedDocs are the documents whose make targets and tree paths must
// resolve.
var resolvedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	docFence     = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	docSpan      = regexp.MustCompile("`([^`]+)`")
	spanMake     = regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)
	fenceMake    = regexp.MustCompile(`(?m)^\s*make\s+([a-z][a-z0-9-]*)`)
	makefileRule = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	// A cmd/, internal/ or examples/ path, not the tail of a longer one
	// (distws/internal/... is an import path) but possibly after "./".
	treePath = regexp.MustCompile(`(?:^|[^\w/.-]|\./)((?:cmd|internal|examples)/[\w./-]*)`)
)

// TestDocsResolve fails on a backticked `make <target>` (or a fenced
// `make <target>` line) that the Makefile does not define, and on a cmd/,
// internal/ or examples/ path that is not in the tree, in each of
// resolvedDocs: a deleted command, package or target cannot linger in
// the prose that tells a reader how to run things.
func TestDocsResolve(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileRule.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	for _, doc := range resolvedDocs {
		data, err := os.ReadFile(filepath.FromSlash(doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		line := func(at int) int { return strings.Count(text[:at], "\n") + 1 }
		checkTarget := func(name string, at int) {
			if !targets[name] {
				t.Errorf("%s:%d: make %s: no such Makefile target", doc, line(at), name)
			}
		}

		// Spans are matched in the prose alone, the fenced blocks blanked
		// out (offsets kept), so a fence's backticks cannot pair with one.
		prose := []byte(text)
		for _, f := range docFence.FindAllStringIndex(text, -1) {
			for _, m := range fenceMake.FindAllStringSubmatchIndex(text[f[0]:f[1]], -1) {
				checkTarget(text[f[0]+m[2]:f[0]+m[3]], f[0]+m[2])
			}
			for i := f[0]; i < f[1]; i++ {
				if prose[i] != '\n' {
					prose[i] = ' '
				}
			}
		}
		for _, s := range docSpan.FindAllSubmatchIndex(prose, -1) {
			for _, m := range spanMake.FindAllStringSubmatchIndex(text[s[2]:s[3]], -1) {
				checkTarget(text[s[2]+m[2]:s[2]+m[3]], s[2]+m[2])
			}
		}

		for _, m := range treePath.FindAllStringSubmatchIndex(text, -1) {
			path := strings.TrimRight(text[m[2]:m[3]], "./")
			if !pathResolves(path) {
				t.Errorf("%s:%d: %s: not in the tree", doc, line(m[2]), path)
			}
		}
	}
}

// pathResolves reports whether path exists, or names an identifier of an
// existing package directory ("internal/dag.Execute").
func pathResolves(path string) bool {
	if _, err := os.Stat(filepath.FromSlash(path)); err == nil {
		return true
	}
	dir, base := filepath.Split(path)
	pkg, _, ok := strings.Cut(base, ".")
	if !ok {
		return false
	}
	info, err := os.Stat(filepath.FromSlash(dir + pkg))
	return err == nil && info.IsDir()
}
