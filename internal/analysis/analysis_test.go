package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// RunAnalyzers must skip _test.go files: the shim-equivalence pins and
// reference implementations live there on purpose.
func TestRunAnalyzersSkipsTestFiles(t *testing.T) {
	fset := token.NewFileSet()
	srcs := map[string]string{
		"p.go":      "package p\nfunc f() { for {} }",
		"p_test.go": "package p\nfunc g() { for {} }",
	}
	var files []*ast.File
	for _, name := range []string{"p.go", "p_test.go"} {
		f, err := parser.ParseFile(fset, name, srcs[name], parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	probe := &Analyzer{
		Name: "probe",
		Doc:  "reports once per analyzed file",
		Run: func(pass *Pass) (interface{}, error) {
			for _, f := range pass.Files {
				pass.Reportf(f.Package, "saw file")
			}
			return nil, nil
		},
	}
	pkg, info, err := Check("p", fset, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunAnalyzers(&Package{Path: "p", Fset: fset, Files: files, Types: pkg, Info: info},
		[]*Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 (the _test.go file must be skipped): %v", len(findings), findings)
	}
	if f := findings[0]; f.Pos.Filename != "p.go" || f.Analyzer != "probe" {
		t.Fatalf("unexpected finding %v", f)
	}
}

func TestHasDirective(t *testing.T) {
	cases := []struct {
		comment string
		want    bool
	}{
		{"//repro:hotpath", true},
		{"//repro:hotpath steady-state phase loop", true},
		{"// repro:hotpath", false},        // directives are unspaced
		{"//repro:hotpathological", false}, // exact name or name+space only
		{"//repro:alloc-ok", false},
	}
	for _, tc := range cases {
		doc := &ast.CommentGroup{List: []*ast.Comment{{Text: tc.comment}}}
		if got := HasDirective(doc, "hotpath"); got != tc.want {
			t.Errorf("HasDirective(%q) = %v, want %v", tc.comment, got, tc.want)
		}
	}
	if HasDirective(nil, "hotpath") {
		t.Error("HasDirective(nil) = true")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Analyzer: "hotpath",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 2},
		Message:  "make allocates",
	}
	s := f.String()
	if !strings.Contains(s, "x.go:3:2") || !strings.Contains(s, "[hotpath]") {
		t.Errorf("Finding.String() = %q", s)
	}
}
