// Package analysis is the repo's domain-specific static-analysis layer:
// a small linter framework plus the analyzers behind cmd/xeonlint.
//
// The golden-artifact gate (internal/golden) catches a drifted paper
// metric only after the drift has happened; the analyzers here move the
// invariants that gate depends on to compile time. Since PR 4 the package
// is a dataflow engine, not just per-file AST walks: a Program computes
// shared Facts (function index, module-wide call graph, field-use
// relation — see facts.go) that the interprocedural passes solve their
// fixed points over, plus shared concurrency summaries (may-block,
// lock-acquisition, WaitGroup-join facts — see conc.go). Since PR 9 a
// profile-guided tier joins them: a stdlib-only pprof reader (pgo.go)
// extracts a deterministic hot set from the checked-in CPU profile, maps
// it onto the call graph, and two performance analyzers lint only the
// code the profile says matters. Nine analyzers guard the promises the
// reproduction makes:
//
//   - taint: no wall clock, no unseeded math/rand, no map-iteration
//     order leaking into ordered output — plus interprocedural
//     nondeterminism taint: a clock/rand/env value laundered through
//     helpers or struct fields into a golden/report/journal/runcache
//     serialization sink is reported at the sink
//   - dimension: physical dimensions (cycles, ns, seconds, bytes, events)
//     inferred from internal/units constants, counters metrics, and
//     naming conventions, propagated through arithmetic; mixed-dimension
//     addition and meaningless products are findings, and so are magic
//     ns/Hz/byte conversion literals bypassing internal/units (with a
//     -fix rewrite to the named constant)
//   - errdrop: no silently dropped error returns (the forEachJob bug
//     class; bare statement drops carry a -fix `_ =` rewrite)
//   - ctxflow: cancellation reaches the blocking frontier — no fresh
//     context roots outside main/tests, no ctx parameter dropped before
//     a may-block callee, no unguarded channel op or cond wait, no
//     select without a ctx.Done() arm (with -fix rewrites for roots and
//     missing Done arms)
//   - goleak: every goroutine has a provable termination path — a
//     WaitGroup join someone Waits on (checked across calls), a context
//     handed to the spawned function, or a structurally finite body
//   - lockorder: no lock-acquisition cycles module-wide, no re-acquiring
//     a held lock (directly or through a callee), no lock held across a
//     blocking operation; subsumes the retired lockcheck patterns (locks
//     copied by value, loop goroutines writing captured state unlocked)
//   - counterparity: every counters.Metrics column and counters.Event name
//     has a renderer/exporter twin, so golden JSON schemas cannot silently
//     lose a column
//   - hotloop: no per-iteration heap allocations or avoidable call
//     overhead in profile-hot loops — string concat, fmt.Sprint*,
//     capturing closures, interface boxing, defer-in-loop, capacity-less
//     append (with -fix rewrites for the cases where the rewrite provably
//     preserves behavior), devirtualizable single-implementation
//     interface calls, hoistable loop-invariant map lookups, channel ops
//   - benchparity: every profile-hot function is reachable from a
//     Benchmark* in the module, so the benchmarks have no blind spot
//     where the profile says the time goes
//
// Findings can be suppressed per line with
//
//	//xeonlint:ignore <analyzer>[,<analyzer>|all] <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory, and an ignore that suppresses nothing is itself reported, so
// suppressions cannot rot silently. Findings may carry machine-applicable
// fixes (fix.go); cmd/xeonlint applies them with -fix and previews them
// with -diff.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"

	"xeonomp/internal/obs"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// a message, and optionally a machine-applicable fix. The driver renders
// it as "file:line:col: [analyzer] msg".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fix, when non-nil, is a textual edit that resolves the finding;
	// cmd/xeonlint applies it under -fix and previews it under -diff.
	Fix *SuggestedFix
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one type-checked package of a loaded Program.
type Package struct {
	// Path is the import path ("xeonomp/internal/core").
	Path string
	// Name is the package name ("core", "main").
	Name string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed sources, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Program is a set of type-checked packages sharing one FileSet — the
// whole module, for the cross-package analyzers.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	// ModulePath is the module path from go.mod, set by the loader; the
	// PGO layer uses it to decide which profile frames belong to the
	// module (see moduleProfileName).
	ModulePath string

	// PGO, when set before Run, attaches a decoded pprof profile (see
	// pgo.go); the hotloop and benchparity analyzers derive their hot
	// set from it. With no profile, only //xeonlint:hot directives seed
	// the hot set.
	PGO *PGOProfile
	// Workers bounds the per-package fan-out inside Run/RunTimed; zero
	// means GOMAXPROCS. One worker reproduces the old serial driver.
	Workers int

	factsMu sync.Mutex
	facts   *Facts // built on first Facts() call, shared by every analyzer
}

// ByName returns the loaded packages with the given package name.
func (p *Program) ByName(name string) []*Package {
	var out []*Package
	for _, pkg := range p.Packages {
		if pkg.Name == name {
			out = append(out, pkg)
		}
	}
	return out
}

// Analyzer is one lint pass. Check sees a single package but receives the
// whole Program so cross-package analyzers (counterparity) can consult
// their counterpart packages.
type Analyzer interface {
	// Name is the stable identifier used in reports and ignore directives.
	Name() string
	// Doc is a one-line description for -list.
	Doc() string
	// Check returns the analyzer's findings for pkg.
	Check(prog *Program, pkg *Package) []Diagnostic
}

// Analyzers returns every registered analyzer in reporting order.
func Analyzers() []Analyzer {
	return []Analyzer{
		&NDTaint{},
		&Dimension{},
		&ErrDrop{},
		&CtxFlow{},
		&GoLeak{},
		&LockOrder{},
		&CounterParity{},
		&HotLoop{},
		&BenchParity{},
	}
}

// ignoreDirective is one parsed //xeonlint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool // nil when "all"
	used      bool
}

// matches reports whether the directive suppresses analyzer findings on
// the given line of its file: the directive's own line or the next one.
func (d *ignoreDirective) matches(analyzer string, line int) bool {
	if line != d.pos.Line && line != d.pos.Line+1 {
		return false
	}
	return d.analyzers == nil || d.analyzers[analyzer]
}

const ignorePrefix = "//xeonlint:ignore"

// parseIgnores extracts the ignore directives of a file. Malformed
// directives — no analyzer list, unknown analyzer name, or a missing
// reason — are reported rather than half-obeyed.
func parseIgnores(fset *token.FileSet, f *ast.File, known map[string]bool) ([]*ignoreDirective, []Diagnostic) {
	var dirs []*ignoreDirective
	var diags []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				diags = append(diags, Diagnostic{Pos: pos, Analyzer: "xeonlint",
					Message: "malformed ignore: want //xeonlint:ignore <analyzer>[,<analyzer>|all] <reason>"})
				continue
			}
			d := &ignoreDirective{pos: pos}
			if fields[0] != "all" {
				d.analyzers = map[string]bool{}
				bad := false
				for _, name := range strings.Split(fields[0], ",") {
					if !known[name] {
						diags = append(diags, Diagnostic{Pos: pos, Analyzer: "xeonlint",
							Message: fmt.Sprintf("ignore names unknown analyzer %q", name)})
						bad = true
						break
					}
					d.analyzers[name] = true
				}
				if bad {
					continue
				}
			}
			dirs = append(dirs, d)
		}
	}
	return dirs, diags
}

// AnalyzerTiming is one analyzer's wall time over the whole module, for
// xeonlint's verbose output. The clock is read through internal/obs, the
// module's sanctioned timing boundary.
type AnalyzerTiming struct {
	Name      string
	ElapsedNs int64
}

// Run executes the analyzers over every package of the program, applies
// the per-line ignore directives, and reports unused ignores. Diagnostics
// come back sorted by position.
func (p *Program) Run(analyzers []Analyzer) []Diagnostic {
	diags, _ := p.RunTimed(analyzers)
	return diags
}

// RunTimed is Run plus per-analyzer wall time, in the analyzers' order.
func (p *Program) RunTimed(analyzers []Analyzer) ([]Diagnostic, []AnalyzerTiming) {
	// Directives are validated against the full registry, not the running
	// subset, so `xeonlint -only ctxflow` over a tree with errdrop ignores
	// neither rejects those directives as unknown nor reports them unused.
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name()] = true
	}

	var diags []Diagnostic
	ignores := map[string][]*ignoreDirective{} // filename -> directives
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			dirs, bad := parseIgnores(p.Fset, f, known)
			diags = append(diags, bad...)
			for _, d := range dirs {
				ignores[d.pos.Filename] = append(ignores[d.pos.Filename], d)
			}
		}
	}

	// Per-package fan-out: each analyzer still runs to completion before
	// the next starts (so -v wall times stay attributable to one
	// analyzer), but its Check calls spread over a bounded worker pool.
	// Results are collected per package index and merged in package
	// order, then sorted — the output is byte-identical to a serial run.
	// The module-wide fixed points the analyzers solve lazily on first
	// Check are serialized by the Facts mutex, so concurrent first calls
	// build each layer exactly once.
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(p.Packages) {
		workers = len(p.Packages)
	}
	if workers < 1 {
		workers = 1
	}
	var timings []AnalyzerTiming
	for _, a := range analyzers {
		t := obs.StartTimer()
		perPkg := make([][]Diagnostic, len(p.Packages))
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					perPkg[i] = a.Check(p, p.Packages[i])
				}
			}()
		}
		for i := range p.Packages {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		for _, pkgDiags := range perPkg {
			for _, d := range pkgDiags {
				suppressed := false
				for _, ig := range ignores[d.Pos.Filename] {
					if ig.matches(d.Analyzer, d.Pos.Line) {
						ig.used = true
						suppressed = true
					}
				}
				if !suppressed {
					diags = append(diags, d)
				}
			}
		}
		timings = append(timings, AnalyzerTiming{Name: a.Name(), ElapsedNs: t.ElapsedNs()})
	}

	files := make([]string, 0, len(ignores))
	for f := range ignores {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for _, ig := range ignores[f] {
			if ig.used {
				continue
			}
			// An ignore for an analyzer that did not run this invocation
			// cannot be judged unused.
			if ig.analyzers != nil && !intersects(ig.analyzers, running) {
				continue
			}
			diags = append(diags, Diagnostic{Pos: ig.pos, Analyzer: "xeonlint",
				Message: "unused ignore directive suppresses nothing; delete it"})
		}
	}

	SortDiagnostics(diags)
	return diags, timings
}

// intersects reports whether the two name sets share an element.
func intersects(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// SortDiagnostics orders findings deterministically — file, line, column,
// analyzer, message — so repeated runs and -json output are diff-stable
// regardless of package iteration or analyzer solve order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// calleeFunc resolves the called function or method of a call expression,
// or nil for calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// returnsError reports whether the call's result tuple contains an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// funcBodies visits every function body of f — declarations and literals —
// exactly once, with the node that owns the body.
func funcBodies(f *ast.File, visit func(owner ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn, fn.Body)
			}
		case *ast.FuncLit:
			visit(fn, fn.Body)
		}
		return true
	})
}

// pathHasSuffix reports whether an import path ends with the given
// slash-separated suffix ("internal/journal" matches
// "xeonomp/internal/journal" but not "xeonomp/internal/journalx").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
