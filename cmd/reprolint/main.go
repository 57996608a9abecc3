// Reprolint runs the repro static-analysis suite: five analyzers that
// mechanically enforce the repo's hot-path, bit-identity and lock
// invariants (see internal/analysis and the "Static analysis" section of
// doc.go). Two of them (determinism, lockdiscipline) are path-sensitive:
// they run on the control-flow graph and dataflow engine of
// internal/analysis/cfg, so "Unlock missing on one branch" is a real
// finding, not a grep match.
//
// Standalone, over package patterns (exit 1 when any diagnostic fires):
//
//	reprolint ./...
//	reprolint -hotpath=false ./internal/dist/...
//
// Or as a vet tool, one compilation unit at a time under the go command's
// build cache (the same -V=full / -flags / unit.cfg protocol
// x/tools/go/analysis/unitchecker implements):
//
//	go vet -vettool=$(which reprolint) ./...
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/knobdrift"
	"repro/internal/analysis/lockdiscipline"
	"repro/internal/analysis/vecorder"
)

// suite is the full analyzer suite, in reporting order.
var suite = []*analysis.Analyzer{
	hotpath.Analyzer,
	vecorder.Analyzer,
	knobdrift.Analyzer,
	determinism.Analyzer,
	lockdiscipline.Analyzer,
}

var (
	jsonFlag    = flag.Bool("json", false, "emit JSON output")
	contextFlag = flag.Int("c", -1, "display offending line with this many lines of context")
	enabled     = map[string]*bool{}
)

func main() {
	// The -V=full handshake identifies the tool to the go command's
	// build cache; it must answer before any other flag handling.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" {
			printVersion()
			return
		}
	}

	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	for _, a := range suite {
		enabled[a.Name] = flag.Bool(a.Name, true, "run the "+a.Name+" analyzer ("+a.Doc+")")
	}
	flag.Usage = usage
	flag.Parse()

	if *printFlags {
		printFlagsJSON()
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runUnit(args[0])
		return
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	runStandalone(args)
}

func usage() {
	fmt.Fprintf(os.Stderr, `reprolint enforces the repro hot-path, bit-identity and concurrency invariants.

Usage:
	reprolint [-<analyzer>=false ...] [packages]   # standalone; exit 1 on findings
	go vet -vettool=$(which reprolint) [packages]  # as a vet tool

Analyzers:
`)
	for _, a := range suite {
		fmt.Fprintf(os.Stderr, "	%-13s %s\n", a.Name, a.Doc)
	}
	os.Exit(2)
}

func enabledSuite() []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range suite {
		if on := enabled[a.Name]; on == nil || *on {
			out = append(out, a)
		}
	}
	return out
}

// runStandalone loads patterns via the go tool and analyzes every matched
// package.
func runStandalone(patterns []string) {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
	var findings []analysis.Finding
	for _, pkg := range pkgs {
		fs, err := analysis.RunAnalyzers(pkg, enabledSuite())
		if err != nil {
			fmt.Fprintln(os.Stderr, "reprolint:", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos.Filename != findings[j].Pos.Filename {
			return findings[i].Pos.Filename < findings[j].Pos.Filename
		}
		return findings[i].Pos.Offset < findings[j].Pos.Offset
	})
	if *jsonFlag {
		printJSON("command-line-arguments", findings)
		return
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "reprolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// vetConfig is the JSON compilation-unit description the go command hands
// a -vettool (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	ImportPath                string
	GoVersion                 string
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
		&analysis.Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info},
		enabledSuite())
	if err != nil {
		fatal(err)
	}

	if *jsonFlag {
		printJSON(cfg.ID, findings)
		return
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s\n", f.Pos, f.Message)
		if *contextFlag >= 0 {
			printContext(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// printContext echoes the offending line plus N lines of context, matching
// the unitchecker's -c flag.
func printContext(f analysis.Finding) {
	data, err := os.ReadFile(f.Pos.Filename)
	if err != nil {
		return
	}
	lines := strings.Split(string(data), "\n")
	for i := f.Pos.Line - *contextFlag; i <= f.Pos.Line+*contextFlag; i++ {
		if 1 <= i && i <= len(lines) {
			fmt.Fprintf(os.Stderr, "%d\t%s\n", i, lines[i-1])
		}
	}
}

// printJSON emits the analysisflags JSON tree shape:
// {"pkg": {"analyzer": [{posn, message}, ...]}}.
func printJSON(id string, findings []analysis.Finding) {
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := map[string][]jsonDiag{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], jsonDiag{Posn: f.Pos.String(), Message: f.Message})
	}
	tree := map[string]map[string][]jsonDiag{id: byAnalyzer}
	out, err := json.MarshalIndent(tree, "", "\t")
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(out)
	fmt.Println()
}

// printFlagsJSON answers the go command's -flags query with the flag list
// it may forward to this tool.
func printFlagsJSON() {
	type jsonFlagDesc struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlagDesc
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlagDesc{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(data)
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
