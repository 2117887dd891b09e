package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// BenchParity closes the loop between the profile and the benchmark
// suite: every function the PGO profile marks hot must be reachable from
// some Benchmark* in the module, or carry a reasoned //xeonlint:ignore.
// A hot function no benchmark exercises is a function whose regressions
// no benchmark can catch — the perf gate has a blind spot exactly where
// the profile says the time goes.
//
// Reachability is computed over the static call graph, seeded from
// Benchmark* functions in the module's _test.go files (parsed
// syntactically — the loader excludes test files from type checking).
// Method calls that the static graph cannot resolve extend the frontier
// to every module method of the same name, a safe overapproximation:
// benchparity should stay quiet when a benchmark plausibly covers a hot
// method through an interface.
type BenchParity struct{}

func (*BenchParity) Name() string { return "benchparity" }
func (*BenchParity) Doc() string {
	return "require every profile-hot function to be reachable from a Benchmark* in the module"
}

func (a *BenchParity) Check(prog *Program, pkg *Package) []Diagnostic {
	facts := prog.Facts()
	hf := facts.hotFor()
	bf := facts.benchFor()
	var diags []Diagnostic
	for _, fi := range facts.PkgFuncs(pkg) {
		reason, hot := hf.hot[fi.Fn]
		if !hot || bf.reached[fi.Fn] {
			continue
		}
		msg := fmt.Sprintf(
			"hot function %s (%s) is not reachable from any Benchmark* in the module; add a benchmark or a reasoned //xeonlint:ignore",
			shortFuncName(fi.Fn), reason)
		if bf.benchCount == 0 {
			msg = fmt.Sprintf(
				"hot function %s (%s) has no benchmark coverage: the module declares no Benchmark* functions",
				shortFuncName(fi.Fn), reason)
		}
		diags = append(diags, Diagnostic{
			Pos:      prog.Fset.Position(fi.Decl.Name.Pos()),
			Analyzer: a.Name(),
			Message:  msg,
		})
	}
	return diags
}

// benchFacts is the benchmark-reachability layer: the set of declared
// module functions transitively callable from a Benchmark*.
type benchFacts struct {
	reached    map[*types.Func]bool
	benchCount int
}

// benchFor builds the benchmark-reachability facts on first use. It is
// independent of hotFor — neither calls the other — so both can be built
// under the same Facts.mu without re-entry.
func (f *Facts) benchFor() *benchFacts {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bench != nil {
		return f.bench
	}
	bf := &benchFacts{reached: map[*types.Func]bool{}}
	f.bench = bf

	// Index the module's declared functions for name-based seeding:
	// package dir → top-level function name → FuncInfo, and method name →
	// all module methods with that name (the dynamic-dispatch fallback).
	type dirFuncs map[string]*FuncInfo
	byDir := map[string]dirFuncs{}
	byPkgName := map[string]map[string]*FuncInfo{}
	methodsByName := map[string][]*types.Func{}
	for _, fi := range f.Funcs {
		if fi.Decl.Recv != nil {
			methodsByName[fi.Fn.Name()] = append(methodsByName[fi.Fn.Name()], fi.Fn)
			continue
		}
		dir := fi.Pkg.Dir
		if byDir[dir] == nil {
			byDir[dir] = dirFuncs{}
		}
		byDir[dir][fi.Fn.Name()] = fi
		pname := fi.Pkg.Types.Name()
		if byPkgName[pname] == nil {
			byPkgName[pname] = map[string]*FuncInfo{}
		}
		byPkgName[pname][fi.Fn.Name()] = fi
	}

	// Parse each package directory's _test.go files syntactically and
	// collect their top-level function declarations.
	type testFunc struct {
		decl *ast.FuncDecl
		dir  string
	}
	testFuncs := map[string]map[string]*testFunc{} // dir → name → decl
	fset := token.NewFileSet()
	for _, pkg := range f.prog.Packages {
		entries, err := os.ReadDir(pkg.Dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				continue // a broken test file is vet's problem, not ours
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Body == nil {
					continue
				}
				if testFuncs[pkg.Dir] == nil {
					testFuncs[pkg.Dir] = map[string]*testFunc{}
				}
				testFuncs[pkg.Dir][fd.Name.Name] = &testFunc{decl: fd, dir: pkg.Dir}
			}
		}
	}

	// Seed: walk each Benchmark* (following test-local helper calls) and
	// collect the module functions its call sites can name. Selector
	// calls are matched by qualifier==package-name for cross-package
	// functions, plus all module methods of that name.
	var frontier []*types.Func
	seed := func(fn *types.Func) {
		if fn != nil && !bf.reached[fn] {
			bf.reached[fn] = true
			frontier = append(frontier, fn)
		}
	}
	for dir, funcs := range testFuncs {
		visited := map[string]bool{}
		var visit func(name string)
		visit = func(name string) {
			if visited[name] {
				return
			}
			visited[name] = true
			tf := funcs[name]
			if tf == nil {
				return
			}
			ast.Inspect(tf.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					// Same-package call: a test helper, or a function of
					// the package under test (in-package test files).
					visit(fun.Name)
					if df := byDir[dir]; df != nil {
						if fi := df[fun.Name]; fi != nil {
							seed(fi.Fn)
						}
					}
				case *ast.SelectorExpr:
					if qual, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
						if pf := byPkgName[qual.Name]; pf != nil {
							if fi := pf[fun.Sel.Name]; fi != nil {
								seed(fi.Fn)
							}
						}
					}
					// Method or unresolvable selector: overapproximate to
					// every module method with this name.
					for _, m := range methodsByName[fun.Sel.Name] {
						seed(m)
					}
				}
				return true
			})
		}
		for name := range funcs {
			if strings.HasPrefix(name, "Benchmark") {
				bf.benchCount++
				visit(name)
			}
		}
	}

	// Transitive closure over the static call graph, extending the
	// frontier through unresolved method calls by name.
	for len(frontier) > 0 {
		fn := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, callee := range f.Callees[fn] {
			if !bf.reached[callee] {
				bf.reached[callee] = true
				frontier = append(frontier, callee)
			}
		}
		fi := f.FuncOf[fn]
		if fi == nil {
			continue
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(fi.Pkg.Info, call)
			if callee != nil && f.FuncOf[callee] != nil {
				return true // statically resolved: the Callees edge covers it
			}
			// Dynamic or abstract dispatch: every module method with this
			// name is plausibly the target.
			for _, m := range methodsByName[sel.Sel.Name] {
				if !bf.reached[m] {
					bf.reached[m] = true
					frontier = append(frontier, m)
				}
			}
			return true
		})
	}
	return bf
}
