package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// GuardedBy enforces the serving stack's concurrency annotations. The
// server is correct by two constructions: shared maps are guarded by
// explicit mutexes (Server.mu over the connections and sessions,
// runner.Memo's), and engine sessions are single-goroutine — exactly
// one connection worker drives a Session, so Session state needs no
// lock at all. Both claims live in comments until someone adds a
// convenient helper that reads a map off-lock or pokes Session fields
// from a second goroutine; the race detector only catches the schedules
// CI happens to see.
//
// Two annotation forms make the claims checkable whole-program:
//
//   - a field annotated `//ppflint:guardedby mu` (or `Server.mu` — the
//     last dotted component names the mutex) may only be accessed inside
//     a function that locks that mutex (`x.mu.Lock()` or `RLock`), or
//     inside a helper marked `//ppflint:locked mu` asserting its caller
//     holds the lock;
//   - a struct annotated `//ppflint:guardedby receiver` may have its
//     fields accessed only from that struct's own methods, which is how
//     the single-goroutine-by-construction discipline is spelled: all
//     Session state flows through Session methods, and the one worker
//     goroutine calls them.
//
// The check is flow-insensitive (a Lock anywhere in the function body
// counts) and each function literal is its own scope: a closure does
// not inherit its creator's critical section, because closures here are
// exactly the things handed to new goroutines.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc: "fields annotated //ppflint:guardedby <mu> may only be accessed in " +
		"functions that lock that mutex (or in //ppflint:locked helpers); " +
		"structs annotated //ppflint:guardedby receiver may only be touched " +
		"from their own methods, enforcing single-goroutine-by-construction " +
		"session state",
	Run: runGuardedBy,
}

// muGuard describes one mutex-guarded field.
type muGuard struct {
	mu    string // final mutex name matched against Lock receivers
	spec  string // the annotation text, for diagnostics (may be dotted)
	owner string // declaring struct name
}

// guardIndex is the suite-wide fact set: which fields are guarded how.
type guardIndex struct {
	mu   map[*types.Var]muGuard
	recv map[*types.Var]*types.TypeName // field -> receiver-guarded struct
}

func runGuardedBy(s *Suite, report func(Diagnostic)) {
	idx := &guardIndex{mu: map[*types.Var]muGuard{}, recv: map[*types.Var]*types.TypeName{}}
	for _, p := range s.Packages {
		collectGuards(p, idx)
	}
	if len(idx.mu) == 0 && len(idx.recv) == 0 {
		return
	}
	// Helpers marked //ppflint:locked <mu> analyze as if mu were held.
	seeds := map[types.Object][]string{}
	for obj, m := range s.MarkedObjs("locked") {
		seeds[obj] = m.Args
	}
	for _, p := range s.Packages {
		for _, fd := range funcDecls(p) {
			checkGuardedFunc(p, fd, idx, seeds[p.Info.Defs[fd.Name]], report)
		}
	}
}

// collectGuards records one package's guardedby annotations: field-level
// mutex guards and struct-level receiver guards.
func collectGuards(p *Package, idx *guardIndex) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				args, ok := directiveIn(gd.Doc, "guardedby")
				if !ok {
					args, ok = directiveIn(ts.Doc, "guardedby")
				}
				recvGuarded := ok && len(args) > 0 && args[0] == "receiver"
				tn, _ := p.Info.Defs[ts.Name].(*types.TypeName)
				for _, fl := range st.Fields.List {
					fargs, fok := directiveIn(fl.Doc, "guardedby")
					if !fok {
						fargs, fok = directiveIn(fl.Comment, "guardedby")
					}
					for _, name := range fl.Names {
						v, _ := p.Info.Defs[name].(*types.Var)
						if v == nil {
							continue
						}
						switch {
						case fok && len(fargs) > 0:
							g := muGuard{spec: fargs[0], owner: ts.Name.Name}
							g.mu = fargs[0]
							if i := strings.LastIndex(g.mu, "."); i >= 0 {
								g.mu = g.mu[i+1:]
							}
							idx.mu[v] = g
						case recvGuarded && tn != nil:
							idx.recv[v] = tn
						}
					}
				}
			}
		}
	}
}

// checkGuardedFunc validates every guarded-field access in one function
// declaration, treating each nested function literal as its own lock
// scope (closures run on other goroutines; they must lock themselves).
func checkGuardedFunc(p *Package, fd *ast.FuncDecl, idx *guardIndex, seed []string, report func(Diagnostic)) {
	owner := receiverTypeName(p, fd)
	var checkScope func(body ast.Node, fname string, seed []string)
	checkScope = func(body ast.Node, fname string, seed []string) {
		locked := map[string]bool{}
		for _, mu := range seed {
			locked[mu] = true
		}
		// Pass 1: collect this scope's Lock/RLock calls (shallow — a
		// lock taken inside a nested closure is not ours).
		inspectShallow(body, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if mu, ok := lockCallName(call); ok {
					locked[mu] = true
				}
			}
		})
		// Pass 2: check accesses, recursing into nested literals with a
		// fresh lock set but the same lexical method owner.
		inspectShallow(body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.FuncLit:
				checkScope(n.Body, fname+" (func literal)", nil)
			case *ast.SelectorExpr:
				selObj := fieldObj(p, n)
				if selObj == nil {
					return
				}
				if g, ok := idx.mu[selObj]; ok && !locked[g.mu] {
					report(Diagnostic{Pos: n.Pos(), Message: fmt.Sprintf(
						"field %s.%s is guarded by %s but %s does not lock it "+
							"(hold %s.Lock here, or mark a helper //ppflint:locked %s)",
						g.owner, selObj.Name(), g.spec, fname, g.mu, g.mu)})
				}
				if tn, ok := idx.recv[selObj]; ok && owner != tn {
					report(Diagnostic{Pos: n.Pos(), Message: fmt.Sprintf(
						"field %s.%s may only be accessed from %s methods "+
							"(//ppflint:guardedby receiver: state is single-goroutine by construction)",
						tn.Name(), selObj.Name(), tn.Name())})
				}
			}
		})
	}
	checkScope(fd.Body, fd.Name.Name, seed)
}

// inspectShallow walks a function body (always a block, never itself a
// literal) without descending into nested function literals; the
// literal node itself is still visited, so the caller can recurse with
// a fresh scope.
func inspectShallow(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		visit(n)
		_, isLit := n.(*ast.FuncLit)
		return !isLit
	})
}

// fieldObj resolves a selector to the struct field it reads or writes,
// or nil for method selections and qualified identifiers. Composite
// literal keys are plain identifiers, so construction before sharing
// (`&lease{sess: s}`) never trips the guard.
func fieldObj(p *Package, sel *ast.SelectorExpr) *types.Var {
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// lockCallName matches `x.mu.Lock()` / `mu.RLock()` style calls and
// returns the mutex's final name.
func lockCallName(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return "", false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		return x.Sel.Name, true
	}
	return "", false
}

// receiverTypeName returns the named type a method is declared on, or
// nil for free functions.
func receiverTypeName(p *Package, fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil {
		return nil
	}
	fn, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	rt := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}
