package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"
)

// WireProto keeps the wire protocols' op and error-code tables closed
// under extension. ppfd and the sweep fabric are hand-rolled binary
// protocols framed by internal/wire: adding a request op means touching
// the client encoder, the server dispatch switch, and the frame-size
// bound table — and nothing ties the three together except discipline.
// An op with no decode half does not fail loudly; it falls into the
// unknown-op path or, worse, hangs a client waiting for a response
// class the server never sends.
// Same for error codes: a code without an exported sentinel cannot be
// matched with errors.Is across the connection, and a code without a
// String case renders as a bare number in every log line.
//
// The analyzer self-scopes to packages declaring the constants it
// checks, and resolves marked helpers across packages, so a protocol
// package's ops take their roles from the framing package's marked
// encoder and exchange. Every unsigned constant named `op<Upper>` must
// be used in three roles, in the package declaring it:
//
//   - encode: inside (or as an argument to) a function named encode* or
//     marked //ppflint:wireencode;
//   - decode: in a switch case or ==/!= comparison, or as an argument
//     to a //ppflint:wiredecode function (the client's expected-op
//     parameter);
//   - bound: inside the //ppflint:framebound function, the table
//     mapping each op to its maximum legal frame size.
//
// Every constant named `Code<Upper>` of a locally-declared type must
// appear in that type's String method and in an exported Err* sentinel
// var, wiring the code↔error tables in both directions.
var WireProto = &Analyzer{
	Name: "wireproto",
	Doc: "every wire op constant must have an encode site, a decode dispatch, " +
		"and a //ppflint:framebound size entry; every wire error code must have " +
		"a String case and an exported Err* sentinel, so protocol extensions " +
		"cannot ship half-wired",
	Run: runWireProto,
}

func runWireProto(s *Suite, report func(Diagnostic)) {
	encodeSinks := s.MarkedObjs("wireencode")
	decodeSinks := s.MarkedObjs("wiredecode")
	boundFns := s.MarkedObjs("framebound")
	for _, p := range s.Packages {
		ops := collectOpConsts(p)
		codes := collectCodeConsts(p)
		if len(ops) > 0 {
			checkOps(p, ops, encodeSinks, decodeSinks, boundFns, report)
		}
		for _, c := range codes {
			checkCode(p, c, report)
		}
	}
}

// wireConst is one collected op or code constant.
type wireConst struct {
	obj  *types.Const
	decl *ast.Ident
}

// collectOpConsts gathers the package's unsigned op<Upper> constants.
func collectOpConsts(p *Package) []wireConst {
	var out []wireConst
	for _, c := range constDecls(p) {
		name := c.decl.Name
		if !strings.HasPrefix(name, "op") || len(name) < 3 || !unicode.IsUpper(rune(name[2])) {
			continue
		}
		b, ok := c.obj.Type().Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsUnsigned == 0 {
			continue
		}
		out = append(out, c)
	}
	return out
}

// collectCodeConsts gathers Code<Upper> constants of locally-declared
// named types (the wire error-code enums).
func collectCodeConsts(p *Package) []wireConst {
	var out []wireConst
	for _, c := range constDecls(p) {
		name := c.decl.Name
		if !strings.HasPrefix(name, "Code") || len(name) < 5 || !unicode.IsUpper(rune(name[4])) {
			continue
		}
		named, ok := c.obj.Type().(*types.Named)
		if !ok || named.Obj().Pkg() != p.Types {
			continue
		}
		out = append(out, c)
	}
	return out
}

// constDecls iterates the package-level constant declarations.
func constDecls(p *Package) []wireConst {
	var out []wireConst
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if obj, ok := p.Info.Defs[name].(*types.Const); ok {
						out = append(out, wireConst{obj: obj, decl: name})
					}
				}
			}
		}
	}
	return out
}

// checkOps classifies every use of every op constant into its roles and
// reports the ops missing one.
func checkOps(p *Package, ops []wireConst, encodeSinks, decodeSinks, boundFns map[types.Object]*MarkedFunc, report func(Diagnostic)) {
	opObjs := map[types.Object]bool{}
	for _, c := range ops {
		opObjs[c.obj] = true
	}
	hasBoundFn := false
	for _, m := range boundFns {
		if m.Pkg == p {
			hasBoundFn = true
		}
	}
	roles := map[types.Object]map[string]bool{}
	addRole := func(obj types.Object, role string) {
		if roles[obj] == nil {
			roles[obj] = map[string]bool{}
		}
		roles[obj][role] = true
	}
	for _, f := range p.Files {
		classifyOpUses(p, f, opObjs, encodeSinks, decodeSinks, boundFns, addRole)
	}
	for _, c := range ops {
		if !hasBoundFn {
			report(Diagnostic{Pos: c.decl.Pos(), Message: fmt.Sprintf(
				"package declares wire op %s but no //ppflint:framebound function "+
					"maps ops to their maximum frame size", c.decl.Name)})
			return // one diagnostic for the missing table, not one per op
		}
		var missing []string
		r := roles[c.obj]
		if !r["encode"] {
			missing = append(missing, "an encode site")
		}
		if !r["decode"] {
			missing = append(missing, "a decode dispatch")
		}
		if !r["bound"] {
			missing = append(missing, "a //ppflint:framebound size entry")
		}
		if len(missing) > 0 {
			report(Diagnostic{Pos: c.decl.Pos(), Message: fmt.Sprintf(
				"wire op %s is missing %s (every op needs an encode site, a decode "+
					"dispatch, and a frame-size bound, or its other half ships by luck)",
				c.decl.Name, strings.Join(missing, " and "))})
		}
	}
}

// classifyOpUses walks one file with a parent stack, assigning a role to
// each use of an op constant based on its syntactic context.
func classifyOpUses(p *Package, f *ast.File, opObjs map[types.Object]bool, encodeSinks, decodeSinks, boundFns map[types.Object]*MarkedFunc, addRole func(types.Object, string)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil || !opObjs[obj] {
			return true
		}
		// Inside the bound table, the use counts only as the bound role —
		// a switch case there must not double as decode dispatch.
		if fd := enclosingFuncDecl(stack); fd != nil {
			fnObj := p.Info.Defs[fd.Name]
			if _, ok := boundFns[fnObj]; ok {
				addRole(obj, "bound")
				return true
			}
			if _, ok := encodeSinks[fnObj]; ok || strings.HasPrefix(fd.Name.Name, "encode") {
				addRole(obj, "encode")
			}
		}
		for i := len(stack) - 2; i >= 0; i-- {
			switch parent := stack[i].(type) {
			case *ast.CaseClause:
				for _, e := range parent.List {
					if id.Pos() >= e.Pos() && id.End() <= e.End() {
						addRole(obj, "decode")
					}
				}
			case *ast.BinaryExpr:
				if parent.Op == token.EQL || parent.Op == token.NEQ {
					addRole(obj, "decode")
				}
			case *ast.CallExpr:
				callObj := calleeObj(p, parent)
				if callObj == nil {
					continue
				}
				if _, ok := encodeSinks[callObj]; ok || strings.HasPrefix(callObj.Name(), "encode") {
					addRole(obj, "encode")
				}
				if _, ok := decodeSinks[callObj]; ok {
					addRole(obj, "decode")
				}
			}
		}
		return true
	})
}

// enclosingFuncDecl finds the innermost function declaration on the
// parent stack.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// calleeObj resolves a call's function object, if the callee is a plain
// identifier or selector.
func calleeObj(p *Package, call *ast.CallExpr) types.Object {
	id, ok := callee(call)
	if !ok {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// checkCode verifies one error-code constant is wired in both table
// directions: a String case and an exported sentinel.
func checkCode(p *Package, c wireConst, report func(Diagnostic)) {
	named := c.obj.Type().(*types.Named)
	inString := false
	for _, fd := range funcDecls(p) {
		if fd.Name.Name != "String" || fd.Recv == nil {
			continue
		}
		if tn := receiverTypeName(p, fd); tn != named.Obj() {
			continue
		}
		if mentionsObject(p.Info, fd.Body, c.obj) {
			inString = true
		}
	}
	if !inString {
		report(Diagnostic{Pos: c.decl.Pos(), Message: fmt.Sprintf(
			"wire error code %s has no case in %s.String (it would render as the "+
				"numeric fallback in every log line)", c.decl.Name, named.Obj().Name())})
	}
	if !hasSentinelFor(p, c.obj) {
		report(Diagnostic{Pos: c.decl.Pos(), Message: fmt.Sprintf(
			"wire error code %s has no exported Err* sentinel (errors.Is cannot "+
				"match this failure class across the wire)", c.decl.Name)})
	}
}

// hasSentinelFor reports whether a package-level exported Err* var's
// initializer mentions the code constant (the `&Error{Code: CodeX}`
// sentinel pattern).
func hasSentinelFor(p *Package, obj *types.Const) bool {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				exported := false
				for _, name := range vs.Names {
					if strings.HasPrefix(name.Name, "Err") && name.IsExported() {
						exported = true
					}
				}
				if !exported {
					continue
				}
				for _, v := range vs.Values {
					if mentionsObject(p.Info, v, obj) {
						return true
					}
				}
			}
		}
	}
	return false
}
