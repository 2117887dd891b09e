package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// HotLoop flags per-iteration costs in profile-hot code — the silent way
// to give back the raw-speed campaign's wins. The cycle engine's ~2.2×
// speedup came partly from driving hot-path allocations to zero (machine
// pooling, SoA state, `TestPoolGetPutNoAllocs`); an accidental closure,
// boxed interface argument, dynamic dispatch, or channel handoff in that
// code costs real throughput without failing any test. The hot set comes
// from the checked-in PGO profile plus //xeonlint:hot directives (see
// pgo.go).
//
// Inside hot loops (including the whole body of a function called from a
// hot loop), allocations:
//
//   - string concatenation building a value per iteration (use
//     strings.Builder)
//   - fmt.Sprint/Sprintf/Sprintln/Errorf, which allocate their result
//   - capturing closures, which allocate per iteration
//   - defer, which grows the defer chain per iteration (when the defer
//     is the loop body's last statement, a -fix rewrite to a direct
//     call; elsewhere report-only, since deleting the keyword would run
//     the call before the statements that follow it)
//   - append to a slice created without a capacity hint (with a -fix
//     adding the capacity when the slice was made with length 0 and the
//     loop bound is derivable)
//   - passing a concrete non-pointer value to an interface parameter,
//     which boxes an allocation per iteration
//
// and call overhead:
//
//   - an interface method call where exactly one concrete in-module type
//     implements the interface: the dispatch can devirtualize (and then
//     inline) by using the concrete type
//   - a map lookup whose map and key are both loop-invariant: hoist the
//     lookup above the loop
//   - channel sends/receives/selects, which take the runtime's channel
//     lock per operation: batch, or restructure to a slice handoff
//
// Anywhere in a profile-hot function:
//
//   - a composite literal whose address escapes through a return or a
//     field store, allocating on every call
//
// Whether a hot callee is small enough to inline is the compiler's call,
// not a lint finding: `go build -gcflags=-m=2` reports each function's
// inlining cost against the budget.
type HotLoop struct{}

func (*HotLoop) Name() string { return "hotloop" }
func (*HotLoop) Doc() string {
	return "flag per-iteration allocations (closures, fmt, string concat, boxing, defer, capacity-less append) and call overhead (devirtualizable interface calls, loop-invariant map lookups, channel ops) in profile-hot code"
}

func (a *HotLoop) Check(prog *Program, pkg *Package) []Diagnostic {
	facts := prog.Facts()
	hf := facts.hotFor()
	var diags []Diagnostic
	for _, fi := range facts.PkgFuncs(pkg) {
		reason, hot := hf.hot[fi.Fn]
		if !hot {
			continue
		}
		w := &hotLoopWalker{
			a: a, prog: prog, pkg: pkg, fi: fi, facts: facts,
			reason:   reason,
			bodyLoop: hf.loopHot[fi.Fn],
			slices:   localSliceDecls(pkg.Info, fi.Decl.Body),
		}
		w.walk(fi.Decl.Body, nil)
		diags = append(diags, w.diags...)
	}
	return diags
}

// sliceDecl records how a function-local slice variable was created, for
// the capacity-hint check.
type sliceDecl struct {
	// makeCall is the `make([]T, 0)` expression when the variable was
	// created that way (the fixable shape); nil for `var s []T` and
	// `s := []T{}`.
	makeCall *ast.CallExpr
	hasCap   bool
}

// localSliceDecls indexes the slice variables a function creates and how:
// `var s []T`, `s := []T{}`, and `s := make([]T, len[, cap])`.
func localSliceDecls(info *types.Info, body *ast.BlockStmt) map[*types.Var]*sliceDecl {
	out := map[*types.Var]*sliceDecl{}
	record := func(def types.Object, rhs ast.Expr) {
		v, ok := def.(*types.Var)
		if !ok {
			return
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		// Only the creation shapes that demonstrably start with zero
		// capacity count: `var s []T`, `s := []T{}`, `s := make([]T, n)`.
		// A reslice like `s := buf[:0]` inherits pooled capacity, and an
		// arbitrary call's result is unknown — neither is a finding.
		d := &sliceDecl{}
		switch rhs := ast.Unparen(rhs).(type) {
		case nil:
		case *ast.CompositeLit:
			if len(rhs.Elts) != 0 {
				return
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(rhs.Fun).(*ast.Ident)
			if !ok || id.Name != "make" {
				return
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return
			}
			d.makeCall = rhs
			d.hasCap = len(rhs.Args) >= 3
		default:
			return
		}
		out[v] = d
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					record(info.Defs[id], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				record(info.Defs[name], rhs)
			}
		}
		return true
	})
	return out
}

type hotLoopWalker struct {
	a        *HotLoop
	prog     *Program
	pkg      *Package
	fi       *FuncInfo
	facts    *Facts
	reason   string
	bodyLoop bool
	slices   map[*types.Var]*sliceDecl
	// selectOps holds the select clauses' own channel operations, which
	// the select's finding already covers.
	selectOps map[ast.Node]bool
	diags     []Diagnostic
}

func (w *hotLoopWalker) report(n ast.Node, fix *SuggestedFix, format string, args ...any) {
	w.diags = append(w.diags, Diagnostic{
		Pos:      w.prog.Fset.Position(n.Pos()),
		Analyzer: w.a.Name(),
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// inLoop reports whether the current loop stack (plus a body that is
// itself loop context) means per-iteration execution.
func (w *hotLoopWalker) inLoop(loops []ast.Node) bool {
	return w.bodyLoop || len(loops) > 0
}

// walk traverses the body tracking the enclosing loops. Function-literal
// bodies inherit the current loop context: a literal built in a hot loop
// is (at best) called once per iteration.
func (w *hotLoopWalker) walk(n ast.Node, loops []ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ForStmt:
			if m.Init != nil {
				w.walk(m.Init, loops)
			}
			inner := append(loops, ast.Node(m))
			if m.Cond != nil {
				w.walk(m.Cond, inner)
			}
			if m.Post != nil {
				w.walk(m.Post, inner)
			}
			w.walk(m.Body, inner)
			return false
		case *ast.RangeStmt:
			w.walk(m.X, loops)
			w.walk(m.Body, append(loops, ast.Node(m)))
			return false
		case *ast.FuncLit:
			if w.inLoop(loops) && capturesOuter(w.pkg.Info, m) {
				w.report(m, nil,
					"closure capturing outer variables in a hot loop allocates per iteration (%s); hoist the closure or pass state explicitly", w.reason)
			}
		case *ast.DeferStmt:
			if w.inLoop(loops) {
				// Deleting the defer keyword runs the call where it was
				// queued, not at function exit — only equivalent to "end of
				// the iteration" when no statements follow in the loop body.
				// Anywhere else the rewrite would reorder effects (e.g. an
				// unlock hoisted before its critical section), so the
				// finding is report-only.
				var fix *SuggestedFix
				if trailingLoopDefer(m, loops) {
					fix = &SuggestedFix{
						Message: "call directly: as the loop body's last statement, the call runs at the same point the defer was queued",
						Edits:   []TextEdit{{Pos: m.Pos(), End: m.Call.Pos()}},
					}
				}
				what := callName(w.pkg.Info, m.Call)
				if _, isLit := ast.Unparen(m.Call.Fun).(*ast.FuncLit); isLit {
					what = "the deferred body"
				}
				w.report(m, fix,
					"defer in a hot loop grows the defer chain every iteration (%s); run %s at the end of the iteration instead",
					w.reason, what)
			}
		case *ast.AssignStmt:
			if w.inLoop(loops) {
				w.checkStringConcat(m)
			}
		case *ast.CallExpr:
			if w.inLoop(loops) {
				w.checkFmtAlloc(m)
				w.checkAppend(m, loops)
				w.checkBoxing(m)
				w.checkInterfaceCall(m)
			}
		case *ast.IndexExpr:
			if w.inLoop(loops) {
				w.checkInvariantMapLookup(m, loops)
			}
		case *ast.SendStmt:
			if w.inLoop(loops) && !w.selectOps[m] {
				w.report(m, nil,
					"channel send in a hot loop takes the channel lock per iteration (%s); batch into a slice and send once", w.reason)
			}
		case *ast.UnaryExpr:
			switch {
			case m.Op == token.AND:
				w.checkEscapingComposite(m, n)
			case m.Op == token.ARROW && w.inLoop(loops) && !w.selectOps[m]:
				w.report(m, nil,
					"channel receive in a hot loop takes the channel lock per iteration (%s); drain in batches outside the hot path", w.reason)
			}
		case *ast.SelectStmt:
			if w.inLoop(loops) {
				w.report(m, nil,
					"select in a hot loop polls every case's channel lock per iteration (%s); restructure to a slice handoff or a coarser wakeup", w.reason)
			}
			for _, clause := range m.Body.List {
				if op := commOp(clause.(*ast.CommClause).Comm); op != nil {
					if w.selectOps == nil {
						w.selectOps = map[ast.Node]bool{}
					}
					w.selectOps[op] = true
				}
			}
		}
		return true
	})
}

// commOp returns a select clause's own channel operation — the send
// statement, or the receive of `<-c`, `v := <-c`, `v, ok = <-c` — or nil
// for the default clause.
func commOp(s ast.Stmt) ast.Node {
	switch s := s.(type) {
	case *ast.SendStmt:
		return s
	case *ast.ExprStmt:
		return ast.Unparen(s.X)
	case *ast.AssignStmt:
		return ast.Unparen(s.Rhs[0])
	}
	return nil
}

// trailingLoopDefer reports whether d is the final statement of the
// innermost enclosing loop's body — the only defer shape where deleting
// the keyword is a safe rewrite: the call runs at the exact program
// point it would have been queued, so nothing in the iteration can be
// reordered around it.
func trailingLoopDefer(d *ast.DeferStmt, loops []ast.Node) bool {
	if len(loops) == 0 {
		return false
	}
	var body *ast.BlockStmt
	switch loop := loops[len(loops)-1].(type) {
	case *ast.ForStmt:
		body = loop.Body
	case *ast.RangeStmt:
		body = loop.Body
	}
	if body == nil || len(body.List) == 0 {
		return false
	}
	return body.List[len(body.List)-1] == ast.Stmt(d)
}

// checkStringConcat flags `s += x` and `s = s + x` on strings.
func (w *hotLoopWalker) checkStringConcat(n *ast.AssignStmt) {
	if len(n.Lhs) != 1 {
		return
	}
	lhsType := w.pkg.Info.TypeOf(n.Lhs[0])
	if lhsType == nil || !isStringType(lhsType) {
		return
	}
	switch n.Tok {
	case token.ADD_ASSIGN: // s += x
	case token.ASSIGN: // s = s + x
		bin, ok := ast.Unparen(n.Rhs[0]).(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD {
			return
		}
		lhsObj := chainObject(w.pkg.Info, n.Lhs[0])
		if lhsObj == nil || chainObject(w.pkg.Info, leftmostOperand(bin)) != lhsObj {
			return
		}
	default:
		return
	}
	w.report(n, nil,
		"string concatenation in a hot loop allocates a new string per iteration (%s); accumulate in a strings.Builder", w.reason)
}

// checkFmtAlloc flags the fmt calls that allocate their result.
func (w *hotLoopWalker) checkFmtAlloc(call *ast.CallExpr) {
	fn := calleeFunc(w.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	switch fn.Name() {
	case "Sprint", "Sprintf", "Sprintln", "Errorf":
		w.report(call, nil,
			"fmt.%s in a hot loop allocates and reflects per iteration (%s); hoist it, or build with strconv.Append* into a reused buffer",
			fn.Name(), w.reason)
	}
}

// checkAppend flags appends to slices created without a capacity hint,
// attaching a make-capacity fix when the loop bound is derivable.
func (w *hotLoopWalker) checkAppend(call *ast.CallExpr, loops []ast.Node) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := w.pkg.Info.Uses[target].(*types.Var)
	if !ok {
		return
	}
	decl, ok := w.slices[v]
	if !ok || decl.hasCap {
		return
	}
	// The capacity fix only fires on the documented capacity-less shape,
	// make([]T, 0): appending a capacity to a nonzero length would leave
	// the n existing elements in front of the appends, fail to compile
	// for a constant bound below the length, and panic (cap out of
	// range) for a dynamic bound below it.
	var fix *SuggestedFix
	bound := ""
	if decl.makeCall != nil && len(decl.makeCall.Args) == 2 && isZeroConst(w.pkg.Info, decl.makeCall.Args[1]) {
		if bound = loopBound(w.pkg.Info, loops); bound != "" {
			fix = &SuggestedFix{
				Message: "preallocate: the loop bound is " + bound,
				Edits: []TextEdit{{
					Pos: decl.makeCall.Rparen, End: decl.makeCall.Rparen,
					NewText: ", " + bound,
				}},
			}
		}
	}
	if bound != "" {
		w.report(call, fix,
			"append to %s in a hot loop regrows without a capacity hint (%s); preallocate with make(..., 0, %s)",
			target.Name, w.reason, bound)
		return
	}
	w.report(call, fix,
		"append to %s in a hot loop regrows without a capacity hint (%s); size the make call or reuse a buffer",
		target.Name, w.reason)
}

// loopBound derives a textual iteration bound from the innermost
// enclosing loop: `for i := 0; i < N; i++` gives "N", `for range xs` over
// a slice/array/map/string gives "len(xs)". Returns "" when no clean
// bound exists.
func loopBound(info *types.Info, loops []ast.Node) string {
	if len(loops) == 0 {
		return ""
	}
	switch loop := loops[len(loops)-1].(type) {
	case *ast.ForStmt:
		bin, ok := ast.Unparen(loop.Cond).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.LSS && bin.Op != token.LEQ) {
			return ""
		}
		if !pureBoundExpr(bin.Y) {
			return ""
		}
		b := exprString(bin.Y)
		if bin.Op == token.LEQ {
			b += "+1"
		}
		return b
	case *ast.RangeStmt:
		if !pureBoundExpr(loop.X) {
			return ""
		}
		tv, ok := info.Types[loop.X]
		if !ok || tv.Type == nil {
			return ""
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Array, *types.Map, *types.Basic:
			return "len(" + exprString(loop.X) + ")"
		}
	}
	return ""
}

// isZeroConst reports whether e is a compile-time integer constant 0.
func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return ok && v == 0
}

// pureBoundExpr accepts the expressions safe to duplicate into a make
// capacity: identifiers, selector chains, and integer literals.
func pureBoundExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return true
	case *ast.BasicLit:
		return e.Kind == token.INT
	case *ast.SelectorExpr:
		return pureBoundExpr(e.X)
	}
	return false
}

// checkBoxing flags concrete non-pointer values passed to interface
// parameters — each such call boxes the value into a fresh allocation
// (pointer-shaped values are stored inline in the interface word).
func (w *hotLoopWalker) checkBoxing(call *ast.CallExpr) {
	fn := calleeFunc(w.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// fmt is flagged wholesale by checkFmtAlloc; double reporting the
	// variadic ...any boxing would be noise.
	if fn.Pkg().Path() == "fmt" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		if pi >= sig.Params().Len() {
			break
		}
		param := sig.Params().At(pi)
		pt := param.Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 && !call.Ellipsis.IsValid() {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface || isErrorType(pt) {
			continue
		}
		tv, ok := w.pkg.Info.Types[arg]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		at := tv.Type
		if !boxesOnConversion(at) {
			continue
		}
		w.report(arg, nil,
			"passing %s by value to interface parameter %q of %s boxes an allocation per iteration (%s); pass a pointer or use a concrete parameter type",
			types.TypeString(at, types.RelativeTo(w.pkg.Types)), param.Name(), shortFuncName(fn), w.reason)
	}
}

// boxesOnConversion reports whether converting a value of type t to an
// interface heap-allocates: true for multi-word and non-pointer-shaped
// types (structs, arrays, strings, slices, sizable basics), false for
// pointers, channels, maps, funcs, unsafe pointers, and interfaces.
func boxesOnConversion(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	default:
		return true
	}
}

// checkEscapingComposite flags `&T{...}` literals that escape the hot
// function through a return statement or a field store.
func (w *hotLoopWalker) checkEscapingComposite(n *ast.UnaryExpr, root ast.Node) {
	lit, ok := ast.Unparen(n.X).(*ast.CompositeLit)
	if !ok || lit.Type == nil {
		return
	}
	escapes := false
	ast.Inspect(root, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				if containsNode(r, n) {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			for i, r := range m.Rhs {
				if !containsNode(r, n) || i >= len(m.Lhs) {
					continue
				}
				if _, isSel := ast.Unparen(m.Lhs[i]).(*ast.SelectorExpr); isSel {
					escapes = true
				}
			}
		}
		return !escapes
	})
	if !escapes {
		return
	}
	w.report(n, nil,
		"&%s{...} escapes hot function %s and allocates on every call (%s); reuse a pooled or caller-provided value",
		exprString(lit.Type), shortFuncName(w.fi.Fn), w.reason)
}

// containsNode reports whether target is within the subtree rooted at n.
func containsNode(n ast.Node, target ast.Node) bool {
	return n.Pos() <= target.Pos() && target.End() <= n.End()
}

// capturesOuter reports whether a function literal references variables
// declared outside itself but inside some function — the captures that
// force the closure (and captured values) to heap-allocate.
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captured; anything declared
		// before the literal but used inside it is.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

// leftmostOperand descends the left spine of a binary expression.
func leftmostOperand(e ast.Expr) ast.Expr {
	for {
		bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return ast.Unparen(e)
		}
		e = bin.X
	}
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkInterfaceCall flags interface method calls with exactly one
// in-module concrete implementation.
func (w *hotLoopWalker) checkInterfaceCall(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := w.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	recv := s.Recv()
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok || isErrorType(recv) {
		return
	}
	impls := w.moduleImplementations(iface)
	if len(impls) != 1 {
		return
	}
	w.report(call, nil,
		"interface call %s.%s in a hot loop dispatches dynamically (%s); %s is the only in-module implementation — use it concretely to devirtualize",
		typeDisplay(recv, w.pkg), sel.Sel.Name, w.reason, typeDisplay(impls[0], w.pkg))
}

// moduleImplementations returns the module's named types satisfying
// iface, by value or by pointer, skipping interface types themselves.
func (w *hotLoopWalker) moduleImplementations(iface *types.Interface) []types.Type {
	var impls []types.Type
	for _, named := range w.facts.NamedTypes {
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(named, iface) {
			impls = append(impls, named)
		} else if ptr := types.NewPointer(named); types.Implements(ptr, iface) {
			impls = append(impls, ptr)
		}
	}
	return impls
}

// checkInvariantMapLookup flags m[k] where neither the map nor the key
// can change across iterations of the innermost enclosing loop.
func (w *hotLoopWalker) checkInvariantMapLookup(idx *ast.IndexExpr, loops []ast.Node) {
	if len(loops) == 0 {
		return // whole-body loop context has no loop node to test invariance against
	}
	tv, ok := w.pkg.Info.Types[idx.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	loop := loops[len(loops)-1]
	mObj := chainObject(w.pkg.Info, idx.X)
	kObj, kConst := lookupKeyObject(w.pkg.Info, idx.Index)
	if mObj == nil || (!kConst && kObj == nil) {
		return
	}
	// The lookup result being assigned is fine; the *map or key* being
	// written in the loop defeats hoisting.
	if objAssignedIn(w.pkg.Info, loop, mObj) || mapMutatedIn(w.pkg.Info, loop, mObj) {
		return
	}
	if kObj != nil && objAssignedIn(w.pkg.Info, loop, kObj) {
		return
	}
	w.report(idx, nil,
		"map lookup %s is loop-invariant in a hot loop (%s); hoist it above the loop", exprString(idx), w.reason)
}

// lookupKeyObject classifies a map key expression: a constant literal
// (kConst), or a simple object chain whose root object is returned.
func lookupKeyObject(info *types.Info, key ast.Expr) (obj types.Object, konst bool) {
	key = ast.Unparen(key)
	if _, ok := key.(*ast.BasicLit); ok {
		return nil, true
	}
	if tv, ok := info.Types[key]; ok && tv.Value != nil {
		return nil, true // constant expression
	}
	return chainObject(info, key), false
}

// objAssignedIn reports whether obj is the target of an assignment,
// IncDec, or unary-& (potential aliasing write) anywhere in the loop.
func objAssignedIn(info *types.Info, loop ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if chainObject(info, lhs) == obj {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if chainObject(info, n.X) == obj {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && chainObject(info, n.X) == obj {
				found = true
			}
		case *ast.RangeStmt:
			for _, lhs := range []ast.Expr{n.Key, n.Value} {
				if lhs != nil && chainObject(info, lhs) == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// mapMutatedIn reports whether the loop stores into or deletes from the
// map rooted at obj.
func mapMutatedIn(info *types.Info, loop ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && chainObject(info, idx.X) == obj {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) > 0 {
					if chainObject(info, n.Args[0]) == obj {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// typeDisplay renders a type relative to the reporting package.
func typeDisplay(t types.Type, pkg *Package) string {
	return types.TypeString(t, types.RelativeTo(pkg.Types))
}
