// Command allocgate is the compiler-diagnostic gate for the hot kernels. It
// rebuilds the engine's kernel packages once with escape analysis and the
// check_bce debug pass enabled (-gcflags='-m -m -d=ssa/check_bce') and runs
// two checks over what the compiler reports:
//
//   - escape: the body of every function annotated //treelint:plain must
//     hold no value the compiler reports as escaping ("escapes to heap" /
//     "moved to heap"). This is the backstop behind treelint's allocfree
//     analyzer: the AST analyzer reasons about allocation forms, the
//     compiler says what actually reaches the heap after inlining and
//     escape analysis. Deliberate, documented allocations are exempted by
//     a //treelint:partial directive on the allocation's line (or the line
//     above it), the escape hatch the allocfree analyzer honors too.
//   - bounds: every batch kernel (StepBatch, SelectBatch,
//     SimulateSegmentCoded) must be annotated //treelint:plain or
//     //treelint:partial, and a plain one must retain no bounds check. The
//     flat-table layouts of DESIGN.md §11 exist so the inner loops compile
//     to straight-line loads; a silently reintroduced IsInBounds is a
//     performance regression no test notices.
//
// The plumbing is deliberately paranoid. The Go build cache suppresses
// compiler diagnostics for up-to-date packages, so the module is copied to
// a scratch directory and every kernel file is salted to force
// recompilation. Two probes are injected into the build, one that must
// escape and one whose bounds check cannot be eliminated: if either
// diagnostic does not surface, the gate exits 2 rather than reporting a
// vacuous pass.
//
//	allocgate                    # gate internal/core, internal/encoding, internal/stackeval
//	allocgate -v                 # also list clean kernels, exempt escapes, other bounds checks
//	allocgate -json              # violations in the shared diagjson schema
//	allocgate -dir m -pkgs ./... # gate another module
//
// Exit status: 0 when both checks pass, 1 when a plain kernel allocates or
// retains a bounds check (or a batch kernel is unannotated), 2 on build or
// plumbing errors (including a missed probe).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"stackless/internal/diagjson"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// kernelNames are the batch-kernel methods the bounds check derives its
// target set from; every implementation must be annotated plain or partial.
var kernelNames = map[string]bool{
	"StepBatch":            true,
	"SelectBatch":          true,
	"SimulateSegmentCoded": true,
}

// diagRe matches one top-level compiler diagnostic. The -m -m flow
// explanation lines repeat the file:line:col prefix with an indented
// message, so the message group requires a non-space start.
var diagRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (\S.*)$`)

const probeFile = "zz_allocgate_probe.go"

// kernel is one annotated (or, for a batch kernel, missing-annotation)
// function: the file it lives in (module-relative, slash-separated) and its
// body's line range.
type kernel struct {
	file       string
	name       string
	start, end int
	mode       string // "plain", "partial", or "" when unannotated
}

// diag is one harvested diagnostic: a retained bounds check (op is
// IsInBounds or IsSliceInBounds) or a heap escape (msg).
type diag struct {
	file    string
	line    int
	op, msg string
}

func (d diag) in(k kernel) bool {
	return strings.HasSuffix(d.file, k.file) && k.start <= d.line && d.line <= k.end
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("allocgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "module root to gate")
	pkgsFlag := fs.String("pkgs", "./internal/core,./internal/encoding,./internal/stackeval", "comma-separated package dirs holding the kernels")
	verbose := fs.Bool("v", false, "also list clean kernels, exempt escapes and bounds checks outside the kernels")
	jsonOut := fs.Bool("json", false, "emit violations as a diagjson record array on stdout")
	noProbe := fs.Bool("noprobe", false, "skip probe injection so the self-test must trip (exercises the vacuous-pass guard)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "allocgate: no arguments expected")
		return 2
	}
	pkgs := strings.Split(*pkgsFlag, ",")

	fail := func(err error) int {
		fmt.Fprintln(stderr, "allocgate:", err)
		return 2
	}

	root, err := filepath.Abs(*dir)
	if err != nil {
		return fail(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fail(fmt.Errorf("%s is not a module root: %w", *dir, err))
	}

	// Copy the module to scratch so salting never touches the real tree.
	tmp, err := os.MkdirTemp("", "allocgate")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	if err := copyModule(root, tmp); err != nil {
		return fail(err)
	}

	// Salt every non-test .go file of the target packages so the build
	// cache cannot swallow the diagnostics, and inject the self-test probes
	// into the first package.
	salt := fmt.Sprintf("// allocgate salt %d %d\n", os.Getpid(), time.Now().UnixNano())
	for i, p := range pkgs {
		pdir := filepath.Join(tmp, filepath.FromSlash(strings.TrimPrefix(p, "./")))
		if err := saltPackage(pdir, salt); err != nil {
			return fail(err)
		}
		if i == 0 && !*noProbe {
			if err := writeProbe(pdir); err != nil {
				return fail(err)
			}
		}
	}

	// Rebuild once with both diagnostics on and harvest them. -m -m
	// repeats lines across passes, so the harvest is de-duplicated.
	cmd := exec.Command("go", append([]string{"build", "-gcflags=./...=-m -m -d=ssa/check_bce"}, pkgs...)...)
	cmd.Dir = tmp
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return fail(fmt.Errorf("go build: %v\n%s", err, out.String()))
	}
	var bounds, escapes []diag
	seen := map[diag]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[2])
		d := diag{file: filepath.ToSlash(m[1]), line: n}
		msg := m[3]
		switch {
		case msg == "Found IsInBounds" || msg == "Found IsSliceInBounds":
			d.op = strings.TrimPrefix(msg, "Found ")
		case strings.Contains(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap"):
			d.msg = strings.TrimSuffix(msg, ":")
		default:
			continue
		}
		if seen[d] {
			continue
		}
		seen[d] = true
		if d.op != "" {
			bounds = append(bounds, d)
		} else {
			escapes = append(escapes, d)
		}
	}

	if err := probeErr(bounds, escapes); err != nil {
		return fail(err)
	}

	// Locate every annotated function and every //treelint:partial line in
	// the scratch copy (line numbers match the original: the salt is
	// appended at EOF).
	var kernels []kernel
	exempt := map[string]map[int]bool{} // file -> lines carrying a partial directive
	for _, p := range pkgs {
		ks, err := scanKernels(tmp, strings.TrimPrefix(p, "./"), exempt)
		if err != nil {
			return fail(err)
		}
		kernels = append(kernels, ks...)
	}
	sort.Slice(kernels, func(i, j int) bool {
		if kernels[i].file != kernels[j].file {
			return kernels[i].file < kernels[j].file
		}
		return kernels[i].start < kernels[j].start
	})
	var batch, plain []kernel
	for _, k := range kernels {
		if kernelNames[k.name] {
			batch = append(batch, k)
		}
		if k.mode == "plain" {
			plain = append(plain, k)
		}
	}
	if len(batch) == 0 || len(plain) == 0 {
		return fail(fmt.Errorf("no batch kernels (%s) or no //treelint:plain kernels found under %s", keys(kernelNames), *pkgsFlag))
	}

	var records []diagjson.Record
	violate := func(file string, line int, kind, msg string) {
		records = append(records, diagjson.Record{File: file, Line: line, Analyzer: "allocgate", Kind: kind, Message: msg})
		if !*jsonOut {
			fmt.Fprintf(stdout, "%s:%d: %s\n", file, line, msg)
		}
	}
	note := func(format string, args ...any) {
		if *verbose && !*jsonOut {
			fmt.Fprintf(stdout, format, args...)
		}
	}

	// Bounds check: batch kernels only.
	bcePlain, bcePartial := 0, 0
	for _, k := range batch {
		switch k.mode {
		case "partial":
			bcePartial++
			continue
		case "":
			violate(k.file, k.start, "unannotated",
				fmt.Sprintf("batch kernel %s carries neither //treelint:plain nor //treelint:partial", k.name))
			continue
		}
		bcePlain++
		clean := true
		for _, d := range bounds {
			if d.in(k) {
				clean = false
				violate(k.file, d.line, "bounds-check",
					fmt.Sprintf("plain kernel %s retains a bounds check (%s)", k.name, d.op))
			}
		}
		if clean {
			note("%s:%d: plain kernel %s is bounds-check-free\n", k.file, k.start, k.name)
		}
	}
	for _, d := range bounds {
		inKernel := path.Base(d.file) == probeFile
		for _, k := range batch {
			inKernel = inKernel || d.in(k)
		}
		if !inKernel {
			note("note: %s:%d: %s (outside the gated kernels)\n", d.file, d.line, d.op)
		}
	}

	// Escape check: every plain function, modulo annotated lines (a
	// directive on the diagnostic's line or the line above it, as the
	// analyzer's HasDirective).
	exempted := 0
	for _, k := range plain {
		clean := true
		for _, d := range escapes {
			if !d.in(k) {
				continue
			}
			if lines := exempt[k.file]; lines[d.line] || lines[d.line-1] {
				exempted++
				note("note: %s:%d: exempt in plain kernel %s: %s\n", k.file, d.line, k.name, d.msg)
				continue
			}
			clean = false
			violate(k.file, d.line, "escape",
				fmt.Sprintf("plain kernel %s allocates: %s", k.name, d.msg))
		}
		if clean {
			note("%s:%d: plain kernel %s is escape-free\n", k.file, k.start, k.name)
		}
	}

	if *jsonOut {
		if err := diagjson.Write(stdout, records); err != nil {
			return fail(err)
		}
	}
	if len(records) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stdout, "allocgate: %d violation(s)\n", len(records))
		}
		return 1
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "allocgate: %d plain kernel(s) bounds-check-free, %d partial kernel(s) exempt\n", bcePlain, bcePartial)
		fmt.Fprintf(stdout, "allocgate: %d plain kernel(s) escape-free, %d annotated escape(s) exempt\n", len(plain), exempted)
	}
	return 0
}

// probeErr is the self-test: each probe is written to trip its check, so
// both diagnostics must be in the harvest — otherwise the flag pipeline is
// broken and a green result would mean nothing.
func probeErr(bounds, escapes []diag) error {
	for _, probe := range []struct {
		what  string
		diags []diag
	}{{"bounds check", bounds}, {"escape", escapes}} {
		seen := false
		for _, d := range probe.diags {
			seen = seen || path.Base(d.file) == probeFile
		}
		if !seen {
			return fmt.Errorf("self-test failed: the probe's %s did not surface; compiler diagnostics are not reaching the gate (%d bounds checks, %d escapes harvested)", probe.what, len(bounds), len(escapes))
		}
	}
	return nil
}

func keys(m map[string]bool) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, "/")
}

// copyModule copies the module tree at src into dst, skipping VCS state.
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// goFiles lists the non-test .go files of the package at dir
// (non-recursive: one package).
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			names = append(names, name)
		}
	}
	return names, nil
}

// saltPackage appends a cache-busting comment to every non-test .go file in
// dir.
func saltPackage(dir, salt string) error {
	names, err := goFiles(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		if _, err := f.WriteString("\n" + salt); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeProbe drops the two self-test functions into the package at dir: one
// whose bounds check the compiler provably cannot eliminate, and one that
// returns the address of a local, which always moves it to the heap.
func writeProbe(dir string) error {
	names, err := goFiles(dir)
	if err != nil {
		return err
	}
	pkg := ""
	fset := token.NewFileSet()
	for _, name := range names {
		if f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly); err == nil {
			pkg = f.Name.Name
			break
		}
	}
	if pkg == "" {
		return fmt.Errorf("no .go files in %s", dir)
	}
	src := fmt.Sprintf(`package %s

// bcegateProbe indexes with an arbitrary int: the check cannot be
// eliminated, so its Found line proves the check_bce pipeline works.
func bcegateProbe(a []int32, i int) int32 { return a[i] }

// allocgateProbe returns the address of its local: the compiler must move
// x to the heap, so the probe's diagnostic proves the -m pipeline works.
func allocgateProbe(n int) *int {
	x := n + 1
	return &x
}
`, pkg)
	return os.WriteFile(filepath.Join(dir, probeFile), []byte(src), 0o644)
}

// scanKernels parses the package at root/rel, returns every batch kernel
// and every //treelint:plain function with its annotation and body line
// range, and records the line of every //treelint:partial directive into
// exempt.
func scanKernels(root, rel string, exempt map[string]map[int]bool) ([]kernel, error) {
	dir := filepath.Join(root, filepath.FromSlash(rel))
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []kernel
	for _, name := range names {
		if name == probeFile {
			continue
		}
		relFile := path.Join(filepath.ToSlash(rel), name)
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if isDirective(c.Text, "partial") {
					if exempt[relFile] == nil {
						exempt[relFile] = map[int]bool{}
					}
					exempt[relFile][fset.Position(c.Pos()).Line] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			mode := annotation(fn)
			if mode != "plain" && !kernelNames[fn.Name.Name] {
				continue
			}
			out = append(out, kernel{
				file:  relFile,
				name:  fn.Name.Name,
				start: fset.Position(fn.Body.Pos()).Line,
				end:   fset.Position(fn.Body.End()).Line,
				mode:  mode,
			})
		}
	}
	return out, nil
}

// annotation extracts the treelint kernel directive from a function's doc
// comment: "plain", "partial", or "" when absent (the first directive
// wins).
func annotation(fn *ast.FuncDecl) string {
	if fn.Doc == nil {
		return ""
	}
	for _, c := range fn.Doc.List {
		for _, mode := range []string{"plain", "partial"} {
			if isDirective(c.Text, mode) {
				return mode
			}
		}
	}
	return ""
}

// isDirective reports whether a comment is the //treelint:<mode> directive,
// optionally followed by a reason.
func isDirective(text, mode string) bool {
	rest, ok := strings.CutPrefix(text, "//treelint:"+mode)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}
