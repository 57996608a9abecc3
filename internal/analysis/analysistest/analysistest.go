// Package analysistest runs an analyzer over fixture packages laid out in
// the x/tools GOPATH style (testdata/src/<importpath>/*.go) and checks its
// diagnostics against inline "// want" markers:
//
//	s := fmt.Sprintf("x") // want `fmt\.Sprintf`
//
// Each marker holds one or more quoted regular expressions; every
// diagnostic the analyzer reports must match an unconsumed expectation on
// its line, and every expectation must be consumed by exactly one
// diagnostic. Fixture imports resolve testdata-first (so fixtures can fake
// the "repro" module surface), then through the real toolchain's export
// data — no network needed.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestData returns the absolute path of the caller package's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// Run analyzes each fixture package (import paths under testdata/src) and
// reports marker mismatches as test errors.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	ld := newLoader(testdata)
	for _, path := range paths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Errorf("%s: loading fixture %s: %v", a.Name, path, err)
			continue
		}
		findings, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		checkMarkers(t, a.Name, pkg, findings)
	}
}

// loader loads fixture packages, caching them and the export-data table
// for external imports.
type loader struct {
	testdata string
	fset     *token.FileSet
	pkgs     map[string]*analysis.Package
	loading  map[string]bool
	exports  map[string]string
}

func newLoader(testdata string) *loader {
	return &loader{
		testdata: testdata,
		fset:     token.NewFileSet(),
		pkgs:     map[string]*analysis.Package{},
		loading:  map[string]bool{},
		exports:  map[string]string{},
	}
}

func (l *loader) load(path string) (*analysis.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.testdata, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg, info, err := analysis.Check(path, l.fset, files, importerFunc(l.importPkg))
	if err != nil {
		return nil, err
	}
	p := &analysis.Package{Path: path, Fset: l.fset, Files: files, Types: pkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// importPkg resolves a fixture import: testdata-local packages load from
// source; anything else comes from toolchain export data fetched lazily
// with `go list -deps -export`.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.testdata, "src", filepath.FromSlash(path))); err == nil {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if _, ok := l.exports[path]; !ok {
		if err := l.listExports(path); err != nil {
			return nil, err
		}
	}
	imp := analysis.ExportImporter(l.fset, func(p string) (string, bool) {
		f, ok := l.exports[p]
		return f, ok
	})
	return imp.Import(path)
}

// listExports records the export-data file of path and of every package in
// its dependency closure, as `go list -deps -export` reports them (built
// into the local build cache; no network).
func (l *loader) listExports(path string) error {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Export", path)
	cmd.Dir = l.testdata
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list %s: %v\n%s", path, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp struct{ ImportPath, Export string }
		if err := dec.Decode(&lp); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Export != "" {
			l.exports[lp.ImportPath] = lp.Export
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// expectation is one parsed "// want" regexp awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// checkMarkers cross-matches findings against // want expectations.
func checkMarkers(t *testing.T, name string, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					raw := m[1]
					if m[2] != "" || raw == "" {
						unq, err := strconv.Unquote(`"` + m[2] + `"`)
						if err != nil {
							t.Errorf("%s: bad want pattern %q: %v", pos, m[0], err)
							continue
						}
						raw = unq
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, raw, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos.Filename != findings[j].Pos.Filename {
			return findings[i].Pos.Filename < findings[j].Pos.Filename
		}
		return findings[i].Pos.Line < findings[j].Pos.Line
	})
	for _, f := range findings {
		consumed := false
		for _, w := range wants {
			if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.matched = true
				consumed = true
				break
			}
		}
		if !consumed {
			t.Errorf("%s: unexpected diagnostic: %s", name, f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: no diagnostic matched `%s`", name, w.file, w.line, w.re)
		}
	}
}
