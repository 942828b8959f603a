package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Snapshot enforces total field coverage in snapshot walks. A method
// named SnapshotWalk or snapshotWalk whose first parameter is a
// *Walker registers its receiver struct for snapshot serialization
// (internal/snap): one walk function drives both the encode and decode
// directions, so encode/decode symmetry holds by construction — but
// only for fields the walk mentions. A field added to the struct later
// and never walked silently reverts to its zero value on restore, the
// exact "stale state after resume" bug class the persistent sim store
// must exclude. The rule: every field of the receiver struct must
// appear as a selector on the receiver somewhere in the method body,
// either walked through the Walker or explicitly parked in
// Walker.Static (which documents config/derived/wiring fields that the
// restoring machine reconstructs).
// The companion Reset rule rides on the same registration: a Reset
// method on a snapshot-walked struct is a lifecycle reset (session
// re-lease, filter re-use), and a field it forgets leaks state from the
// previous lease — the mirror image of the stale-restore bug. Reset
// must therefore either reassign the whole receiver (`*r = ...`, immune
// to new fields by construction) or mention every field.
var Snapshot = &Analyzer{
	Name: "snapshot",
	Doc: "snapshot walks must visit every receiver field: each field of a " +
		"struct with a SnapshotWalk/snapshotWalk(*Walker) method must be " +
		"serialized through the walker or explicitly listed in Static, so " +
		"fields added later cannot silently come back stale from a snapshot; " +
		"a Reset method on such a struct must whole-receiver reassign or " +
		"mention every field, so re-leased state cannot leak either",
	Run: runSnapshot,
}

func runSnapshot(s *Suite, report func(Diagnostic)) {
	for _, p := range s.Packages {
		// walked maps each registered struct to the fields its walk parks
		// in Static — configuration the restoring (and resetting) side
		// reconstructs or deliberately keeps.
		walked := map[*types.Named]map[string]bool{}
		var resets []*ast.FuncDecl
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if named, static := checkSnapshotWalk(p, fn, report); named != nil {
					if walked[named] == nil {
						walked[named] = map[string]bool{}
					}
					for name := range static {
						walked[named][name] = true
					}
				}
				if fn.Name.Name == "Reset" && fn.Recv != nil && fn.Body != nil {
					resets = append(resets, fn)
				}
			}
		}
		for _, fn := range resets {
			checkResetCoverage(p, fn, walked, report)
		}
	}
}

// checkResetCoverage enforces the Reset half of the rule for structs
// registered by a snapshot walk in the same package. Fields the walk
// parks in Static are configuration and are exempt.
func checkResetCoverage(p *Package, fn *ast.FuncDecl, walked map[*types.Named]map[string]bool, report func(Diagnostic)) {
	obj, ok := p.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	recvNamed, ok := rt.(*types.Named)
	if !ok {
		return
	}
	static, registered := walked[recvNamed]
	if !registered {
		return
	}
	st, ok := recvNamed.Underlying().(*types.Struct)
	if !ok {
		return
	}

	var recvObj types.Object
	if names := fn.Recv.List[0].Names; len(names) == 1 {
		recvObj = p.Info.Defs[names[0]]
	}

	// A whole-receiver reassignment (`*r = ...`) covers every field,
	// present and future, by construction.
	wholeAssign := false
	visited := map[string]bool{}
	if recvObj != nil {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					star, ok := lhs.(*ast.StarExpr)
					if !ok {
						continue
					}
					if id, ok := star.X.(*ast.Ident); ok && p.Info.Uses[id] == recvObj {
						wholeAssign = true
					}
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && p.Info.Uses[id] == recvObj {
					visited[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	if wholeAssign {
		return
	}

	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		if name := st.Field(i).Name(); !visited[name] && !static[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		report(Diagnostic{
			Pos: fn.Pos(),
			Message: "Reset on snapshot-walked " + recvNamed.Obj().Name() +
				" does not touch field " + name +
				" (reassign the whole receiver or reset every field)",
		})
	}
}

// checkSnapshotWalk verifies one candidate method, ignoring functions
// that are not snapshot walks (wrong name, wrong parameter type, or a
// non-struct receiver). For a genuine walk it returns the receiver's
// named struct type and the set of fields the walk parks in Static,
// registering both for the Reset rule.
func checkSnapshotWalk(p *Package, fn *ast.FuncDecl, report func(Diagnostic)) (*types.Named, map[string]bool) {
	if fn.Name.Name != "SnapshotWalk" && fn.Name.Name != "snapshotWalk" {
		return nil, nil
	}
	if fn.Recv == nil || fn.Body == nil {
		return nil, nil
	}
	obj, ok := p.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return nil, nil
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() == 0 {
		return nil, nil
	}
	pt, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return nil, nil
	}
	named, ok := pt.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Walker" {
		return nil, nil
	}
	recv := sig.Recv()
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	recvNamed, ok := rt.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := recvNamed.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}

	// The receiver variable, when named: body selectors rooted at it
	// mark their field as visited. Walker.Static arguments additionally
	// mark their field as configuration for the Reset rule.
	var recvObj types.Object
	if names := fn.Recv.List[0].Names; len(names) == 1 {
		recvObj = p.Info.Defs[names[0]]
	}
	var walkerObj types.Object
	if params := fn.Type.Params.List; len(params[0].Names) > 0 {
		walkerObj = p.Info.Defs[params[0].Names[0]]
	}
	recvField := func(e ast.Expr) (string, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || p.Info.Uses[id] != recvObj {
			return "", false
		}
		return sel.Sel.Name, true
	}
	visited := map[string]bool{}
	static := map[string]bool{}
	if recvObj != nil {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if name, ok := recvField(n); ok {
					visited[name] = true
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Static" {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || p.Info.Uses[id] != walkerObj {
					return true
				}
				for _, arg := range n.Args {
					if name, ok := recvField(arg); ok {
						static[name] = true
					}
				}
			}
			return true
		})
	}

	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		if name := st.Field(i).Name(); !visited[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		report(Diagnostic{
			Pos: fn.Pos(),
			Message: "snapshot walk for " + recvNamed.Obj().Name() +
				" does not visit field " + name +
				" (walk it through the Walker or list it in Static)",
		})
	}
	return recvNamed, static
}
