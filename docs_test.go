package kgaq_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the repo documents whose links the docs CI job keeps alive.
var docFiles = []string{"README.md", "DESIGN.md", "PAPER.md", "ROADMAP.md", "CHANGES.md"}

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocLinks verifies every relative markdown link in the tracked
// documents resolves to a file or directory that exists, and that
// file:symbol pointers of the form `path/to/file.go` name real files.
// External (http/https/mailto) links are not fetched — CI must not depend
// on the network — but their URLs must at least parse as absolute.
func TestDocLinks(t *testing.T) {
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s: broken relative link %q", doc, m[1])
			}
		}
	}
}

// TestPaperMapPointers keeps PAPER.md's file pointers honest: every
// `internal/...` or `cmd/...` path mentioned in backticks must exist.
func TestPaperMapPointers(t *testing.T) {
	data, err := os.ReadFile("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	pathRe := regexp.MustCompile("`((?:internal|cmd)/[A-Za-z0-9_./-]*)`")
	seen := map[string]bool{}
	for _, m := range pathRe.FindAllStringSubmatch(string(data), -1) {
		p := m[1]
		if seen[p] {
			continue
		}
		seen[p] = true
		if _, err := os.Stat(filepath.FromSlash(p)); err != nil {
			t.Errorf("PAPER.md: pointer %q names a missing path", p)
		}
	}
	if len(seen) == 0 {
		t.Fatal("PAPER.md contains no file pointers — the paper→code map is gone")
	}
}

// paperSymbol matches a backticked Go symbol reference in PAPER.md:
// an identifier or selector, optionally with a method receiver and a
// trailing argument list, e.g. `estimate.MoE`, `(*walk.Walker).ConvergeCtx`
// or `(*core.Execution).Refine(ctx, eb)`.
var (
	paperSymbol  = regexp.MustCompile(`^(?:\(\*?[A-Za-z_][\w.]*\)\.)?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\([^)]*\))?$`)
	trailingArgs = regexp.MustCompile(`\([^)]*\)$`)
	lastIdent    = regexp.MustCompile(`\w+$`)
)

// paperMapSymbols derives the (file, identifier) pairs PAPER.md's table rows
// anchor the paper to: within a row, each backticked `internal/….go` path
// is followed by the backticked symbols it names, up to the next path; the
// last identifier of each symbol (its argument list stripped) is what must
// appear in that file.
func paperMapSymbols(doc string) [][2]string {
	tick := regexp.MustCompile("`([^`]+)`")
	var pairs [][2]string
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		file := ""
		for _, m := range tick.FindAllStringSubmatch(line, -1) {
			tok := m[1]
			if strings.Contains(tok, "/") {
				file = ""
				if strings.HasPrefix(tok, "internal/") && strings.HasSuffix(tok, ".go") {
					file = tok
				}
				continue
			}
			if file == "" || !paperSymbol.MatchString(tok) {
				continue
			}
			ident := lastIdent.FindString(trailingArgs.ReplaceAllString(tok, ""))
			pairs = append(pairs, [2]string{file, ident})
		}
	}
	return pairs
}

// TestPaperMapSymbols checks that the symbols PAPER.md anchors the paper's
// machinery to still exist in the named files, so the map cannot silently
// rot as code moves. The pairs come from PAPER.md itself; the hand-written
// list is a floor that keeps the core anchors checked even if the table's
// layout changes.
func TestPaperMapSymbols(t *testing.T) {
	data, err := os.ReadFile("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	derived := paperMapSymbols(string(data))
	t.Logf("PAPER.md anchors %d (file, symbol) pairs", len(derived))
	if len(derived) < 40 {
		t.Fatalf("PAPER.md yields only %d (file, symbol) pairs — table layout changed?", len(derived))
	}
	for _, c := range derived {
		src, err := os.ReadFile(filepath.FromSlash(c[0]))
		if err != nil {
			t.Errorf("%s: %v", c[0], err)
			continue
		}
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(c[1]) + `\b`).Match(src) {
			t.Errorf("PAPER.md: %s names %q, which it no longer contains", c[0], c[1])
		}
	}

	floor := []struct{ file, symbol string }{
		{"internal/semsim/semsim.go", "func (c *Calculator) PathSim"},
		{"internal/walk/walker.go", "func (w *Walker) ConvergeCtx"},
		{"internal/walk/walker.go", "func (w *Walker) AnswerDistribution"},
		{"internal/estimate/estimate.go", "func Estimate"},
		{"internal/estimate/estimate.go", "func MoE"},
		{"internal/estimate/estimate.go", "func NextSampleSize"},
		{"internal/estimate/estimate.go", "func Satisfied"},
		{"internal/estimate/stratified.go", "func EstimateStratified"},
		{"internal/estimate/stratified.go", "func MoEStratified"},
		{"internal/estimate/stratified.go", "func AllocateDraws"},
		{"internal/core/exec.go", "func (x *Execution) Refine"},
		{"internal/core/space.go", "func (e *Engine) buildChainLevel"},
		{"internal/core/space.go", "func (e *Engine) buildAssemblySpace"},
		{"internal/core/prepared.go", "func (e *Engine) Prepare"},
		{"internal/core/multi.go", "func (x *Execution) refineMulti"},
		{"internal/estimate/multi.go", "func Project"},
		{"internal/shard/shard.go", "func SplitSpace"},
		{"internal/estimate/estimate_test.go", "func TestTheorem2"},
		{"internal/estimate/multi_test.go", "func TestProjectMatchesSingleTarget"},
	}
	for _, c := range floor {
		data, err := os.ReadFile(filepath.FromSlash(c.file))
		if err != nil {
			t.Errorf("%s: %v", c.file, err)
			continue
		}
		if !strings.Contains(string(data), c.symbol) {
			t.Error(fmt.Sprintf("%s: symbol %q referenced by PAPER.md no longer present", c.file, c.symbol))
		}
	}
}
