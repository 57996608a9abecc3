// Reprolint runs the repro static-analysis suite as a go vet tool: the
// analyzers mechanically enforce the repo's hot-path, bit-identity and
// knob-table invariants (see internal/analysis and the "Static analysis"
// section of doc.go). go vet hands it one compilation unit at a time under
// its build cache (the same -V=full / -flags / unit.cfg protocol
// x/tools/go/analysis/unitchecker implements); any diagnostic exits 1:
//
//	go vet -vettool=$(which reprolint) ./...
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/knobdrift"
	"repro/internal/analysis/vecorder"
)

// suite is the full analyzer suite, in reporting order.
var suite = []*analysis.Analyzer{
	hotpath.Analyzer,
	vecorder.Analyzer,
	knobdrift.Analyzer,
	determinism.Analyzer,
}

func main() {
	// go vet asks the tool two questions before it hands over any unit:
	// -V=full (its identity in the build cache) and -flags (which of its
	// command-line flags go vet may forward; reprolint has none).
	if len(os.Args) == 2 {
		switch os.Args[1] {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}
	if len(os.Args) != 2 || !strings.HasSuffix(os.Args[1], ".cfg") {
		usage()
	}
	runUnit(os.Args[1])
}

func usage() {
	fmt.Fprintf(os.Stderr, `reprolint runs as a go vet tool, one compilation unit at a time:

	go vet -vettool=$(which reprolint) [packages]

Analyzers:
`)
	for _, a := range suite {
		fmt.Fprintf(os.Stderr, "	%-13s %s\n", a.Name, a.Doc)
	}
	os.Exit(2)
}

// vetConfig is the JSON compilation-unit description the go command hands
// a -vettool (the unitchecker protocol).
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes the single compilation unit described by cfgFile.
func runUnit(cfgFile string) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("cannot decode JSON config file %s: %v", cfgFile, err))
	}

	// The suite exports no facts, but writing the (empty) facts file lets
	// the go command cache this unit's run.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fatal(err)
		}
	}
	if cfg.VetxOnly {
		return // dependency pass: facts only, and we have none
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return
			}
			fatal(err)
		}
		files = append(files, f)
	}

	// Imports resolve through the export data the go command already
	// compiled (gc only; this repo never builds with gccgo).
	imp := analysis.ExportImporter(fset, func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		return f, ok
	})

	// Test variants arrive as "path [path.test]"; strip the variant so
	// path-scoped rules (vecorder's internal/vec exemption, determinism's
	// result-package match) behave identically to the base package.
	path := cfg.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	pkg, info, err := analysis.Check(path, fset, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return
		}
		fatal(err)
	}

	findings, err := analysis.RunAnalyzers(
		&analysis.Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}, suite)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s\n", f.Pos, f.Message)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// printVersion answers -V=full: the go command hashes the reported build
// ID into its action cache keys, so it must change when the binary does.
// Hashing the executable itself reproduces the unitchecker behavior.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fatal(err)
	}
	fmt.Printf("%s version devel reprolint buildID=%02x\n", exe, string(h.Sum(nil)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reprolint:", err)
	os.Exit(1)
}
