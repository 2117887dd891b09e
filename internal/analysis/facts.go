package analysis

import (
	"go/ast"
	"go/types"
	"sync"
)

// This file is the dataflow engine's shared substrate. A loaded Program
// computes one Facts value on demand — a module-wide function index, the
// static call graph over it, and the cross-package field-use relation —
// and every analyzer consumes those facts instead of re-walking the
// module. The interprocedural passes (taint, dimension) additionally
// cache their fixed-point results here, so the engine solves each
// whole-module analysis exactly once per run no matter how many packages
// Check is called on.

// FuncInfo is one declared function or method of the program, joined with
// the package it lives in and its body.
type FuncInfo struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
}

// Body is one top-level function body: a declared function, or a function
// literal bound to a package-level variable. Nested literals are reached
// by walking the enclosing Block, so iterating a package's Bodies visits
// every statement of the package exactly once.
type Body struct {
	// Owner is the *ast.FuncDecl or package-level *ast.FuncLit.
	Owner ast.Node
	// Fn is the declared function object; nil for package-level literals.
	Fn    *types.Func
	Pkg   *Package
	Block *ast.BlockStmt
}

// Facts is the shared state the analyzers build on: the function index,
// the call graph, and the field-use relation, computed once per Program.
type Facts struct {
	prog *Program

	// Funcs lists every declared function with a body, in bottom-up call
	// graph order (callees before callers, cycles broken arbitrarily), so
	// summary-driven passes converge in one or two sweeps.
	Funcs []*FuncInfo
	// FuncOf resolves a types.Func back to its declaration.
	FuncOf map[*types.Func]*FuncInfo

	// Callees and Callers are the static call-graph edges between declared
	// functions of the module. Calls through function values and into
	// other modules have no edge; the value-flow passes treat those
	// callees conservatively instead.
	Callees map[*types.Func][]*types.Func
	Callers map[*types.Func][]*types.Func

	// FieldUses maps each struct field to the packages that read it via a
	// selector — the relation counterparity checks Metrics columns
	// against.
	FieldUses map[*types.Var]map[*Package]bool

	// NamedTypes lists every package-level named type of the module, in
	// package/source order — the set hotloop searches for concrete
	// implementations when it argues an interface call can devirtualize.
	NamedTypes []*types.Named

	bodies map[*Package][]Body

	// mu serializes the lazy module-wide solves below: with per-package
	// analyzer runs fanned out over a worker pool, the first Check calls
	// of one analyzer race to build its fixed point. Each getter
	// double-checks under the lock; after a layer is built it is
	// read-only and needs no further synchronization.
	mu sync.Mutex

	taint *taintFacts // solved lazily by the taint analyzer
	dims  *dimFacts   // solved lazily by the dimension analyzer
	conc  *concFacts  // solved lazily by the concurrency analyzers
	hotf  *hotFacts   // solved lazily by the PGO-driven analyzers
	bench *benchFacts // solved lazily by the benchparity analyzer
}

// Facts returns the program's shared analysis facts, building them on
// first use. Safe for concurrent use by the parallel analyzer driver.
func (p *Program) Facts() *Facts {
	p.factsMu.Lock()
	defer p.factsMu.Unlock()
	if p.facts == nil {
		p.facts = buildFacts(p)
	}
	return p.facts
}

// Bodies returns the top-level function bodies of pkg.
func (f *Facts) Bodies(pkg *Package) []Body {
	return f.bodies[pkg]
}

// PkgFuncs returns the declared functions of pkg in source order.
func (f *Facts) PkgFuncs(pkg *Package) []*FuncInfo {
	var out []*FuncInfo
	for _, fi := range f.Funcs {
		if fi.Pkg == pkg {
			out = append(out, fi)
		}
	}
	return out
}

func buildFacts(p *Program) *Facts {
	f := &Facts{
		prog:      p,
		FuncOf:    map[*types.Func]*FuncInfo{},
		Callees:   map[*types.Func][]*types.Func{},
		Callers:   map[*types.Func][]*types.Func{},
		FieldUses: map[*types.Var]map[*Package]bool{},
		bodies:    map[*Package][]Body{},
	}

	// Function index and top-level bodies, in source order.
	var declared []*FuncInfo
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					fi := &FuncInfo{Fn: fn, Pkg: pkg, Decl: d}
					declared = append(declared, fi)
					f.FuncOf[fn] = fi
					f.bodies[pkg] = append(f.bodies[pkg], Body{Owner: d, Fn: fn, Pkg: pkg, Block: d.Body})
				case *ast.GenDecl:
					// var handler = func() {...} at package level: the body
					// belongs to no FuncDecl, so index it separately.
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, v := range vs.Values {
							for _, lit := range topFuncLits(v) {
								f.bodies[pkg] = append(f.bodies[pkg], Body{Owner: lit, Pkg: pkg, Block: lit.Body})
							}
						}
					}
				}
			}
		}
	}

	// Static call graph over the declared functions.
	edge := map[[2]*types.Func]bool{}
	for _, pkg := range p.Packages {
		for _, b := range f.bodies[pkg] {
			caller := b.Fn
			if caller == nil {
				continue
			}
			ast.Inspect(b.Block, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pkg.Info, call)
				if callee == nil || f.FuncOf[callee] == nil {
					return true
				}
				k := [2]*types.Func{caller, callee}
				if !edge[k] {
					edge[k] = true
					f.Callees[caller] = append(f.Callees[caller], callee)
					f.Callers[callee] = append(f.Callers[callee], caller)
				}
				return true
			})
		}
	}

	// Bottom-up ordering: postorder DFS over the callee edges.
	seen := map[*types.Func]bool{}
	var order []*FuncInfo
	var visit func(fi *FuncInfo)
	visit = func(fi *FuncInfo) {
		if seen[fi.Fn] {
			return
		}
		seen[fi.Fn] = true
		for _, callee := range f.Callees[fi.Fn] {
			visit(f.FuncOf[callee])
		}
		order = append(order, fi)
	}
	for _, fi := range declared {
		visit(fi)
	}
	f.Funcs = order

	// Package-level named types, for implements-style queries.
	for _, pkg := range p.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				f.NamedTypes = append(f.NamedTypes, named)
			}
		}
	}

	// Field-use relation: which packages select which struct fields.
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := pkg.Info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				fld, ok := s.Obj().(*types.Var)
				if !ok {
					return true
				}
				if f.FieldUses[fld] == nil {
					f.FieldUses[fld] = map[*Package]bool{}
				}
				f.FieldUses[fld][pkg] = true
				return true
			})
		}
	}
	return f
}

// topFuncLits returns the outermost function literals of an expression
// (literals nested inside another literal's body are reached by walking
// that body).
func topFuncLits(e ast.Expr) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
			return false
		}
		return true
	})
	return lits
}
