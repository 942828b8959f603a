package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ErrTyped keeps the module's error taxonomy intact across wrapping and
// across process boundaries. Exported Err* sentinels are the API for
// failure classes — a client branches on errors.Is(err, ErrOverloaded),
// a restore distinguishes ErrConfigMismatch from corruption — and that
// contract breaks in two quiet ways: wrapping a sentinel with %v (or %s)
// flattens it into text so errors.Is stops matching, and comparing with
// == stops matching the moment anyone adds legitimate wrapping upstream.
//
// The third rule is the boundary half: a sentinel declared in a package
// on the wire/snapshot boundary (wire, serve, sweepfab, engine, snap,
// core, sim) is a promise that the class survives encode/decode, and
// the only proof is a test asserting errors.Is against it after a round
// trip. Test files are parsed (not type-checked) by the loader
// precisely so this rule can see the references; matching is by
// sentinel name, which is unambiguous while sentinel names stay
// distinct module-wide.
var ErrTyped = &Analyzer{
	Name: "errtyped",
	Doc: "exported Err* sentinels may only be wrapped with %w (never %v/%s, " +
		"which flatten them to text) and never compared with ==; sentinels in " +
		"wire/snapshot boundary packages must be pinned by an errors.Is test " +
		"reference proving the class survives the round trip",
	Run: runErrTyped,
}

// errtypedBoundary lists the packages whose sentinels must survive an
// encode/decode round trip.
var errtypedBoundary = []string{
	"internal/wire", "internal/serve", "internal/engine", "internal/snap", "internal/core",
	"internal/sim", "internal/sweepfab",
}

func runErrTyped(s *Suite, report func(Diagnostic)) {
	sentinels := collectSentinels(s)
	if len(sentinels) == 0 {
		return
	}
	for _, p := range s.Packages {
		for _, fd := range funcDecls(p) {
			checkSentinelUses(p, fd, sentinels, report)
		}
	}
	tested := testReferencedSentinels(s)
	for obj, pos := range sentinels {
		p := declaringPackage(s, obj)
		if p == nil || !inBoundary(p) {
			continue
		}
		if !tested[obj.Name()] {
			report(Diagnostic{Pos: pos, Message: fmt.Sprintf(
				"boundary sentinel %s has no errors.Is test reference: nothing "+
					"proves the failure class survives the wire/snapshot round "+
					"trip (add a round-trip test asserting errors.Is)", obj.Name())})
		}
	}
}

// collectSentinels finds every exported package-level Err* variable of
// an error type, mapped to its declaration position.
func collectSentinels(s *Suite) map[types.Object]token.Pos {
	errType := types.Universe.Lookup("error").Type()
	out := map[types.Object]token.Pos{}
	for _, p := range s.Packages {
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
					for _, name := range vs.Names {
						if !strings.HasPrefix(name.Name, "Err") || !name.IsExported() {
							continue
						}
						obj := p.Info.Defs[name]
						if obj == nil || !types.AssignableTo(obj.Type(), errType) {
							continue
						}
						out[obj] = name.Pos()
					}
				}
			}
		}
	}
	return out
}

// checkSentinelUses enforces the wrap and compare rules in one function.
func checkSentinelUses(p *Package, fd *ast.FuncDecl, sentinels map[types.Object]token.Pos, report func(Diagnostic)) {
	isSentinel := func(e ast.Expr) (string, bool) {
		var id *ast.Ident
		switch e := e.(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return "", false
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return "", false
		}
		_, ok := sentinels[obj]
		return id.Name, ok
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			for _, side := range []ast.Expr{n.X, n.Y} {
				if name, ok := isSentinel(side); ok {
					report(Diagnostic{Pos: n.Pos(), Message: fmt.Sprintf(
						"%s comparison against sentinel %s breaks as soon as a caller "+
							"wraps the error; use errors.Is", n.Op, name)})
				}
			}
		case *ast.CallExpr:
			if !pkgCall(p.Info, n, "fmt", "Errorf") || len(n.Args) < 2 {
				return true
			}
			lit, ok := n.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			verbs := formatVerbs(format)
			for i, arg := range n.Args[1:] {
				name, ok := isSentinel(arg)
				if !ok || i >= len(verbs) {
					continue
				}
				if verbs[i] != 'w' {
					report(Diagnostic{Pos: arg.Pos(), Message: fmt.Sprintf(
						"sentinel %s wrapped with %%%c flattens to text and stops "+
							"matching errors.Is; wrap with %%w", name, verbs[i])})
				}
			}
		}
		return true
	})
}

// formatVerbs returns the verb letter consuming each successive
// argument of a Printf-style format string ('*' widths consume an
// argument and record as 'd').
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
			i++
		}
		for i < len(format) && format[i] == '*' {
			verbs = append(verbs, 'd')
			i++
			for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
				i++
			}
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}

// testReferencedSentinels scans the suite's parsed test files for
// errors.Is(_, X) calls and returns the referenced sentinel names.
func testReferencedSentinels(s *Suite) map[string]bool {
	out := map[string]bool{}
	for _, p := range s.Packages {
		for _, f := range p.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Is" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "errors" {
					return true
				}
				switch arg := call.Args[1].(type) {
				case *ast.Ident:
					out[arg.Name] = true
				case *ast.SelectorExpr:
					out[arg.Sel.Name] = true
				}
				return true
			})
		}
	}
	return out
}

// declaringPackage maps a sentinel object back to its suite package.
func declaringPackage(s *Suite, obj types.Object) *Package {
	for _, p := range s.Packages {
		if p.Types == obj.Pkg() {
			return p
		}
	}
	return nil
}

// inBoundary reports whether the package is on the wire/snapshot
// boundary list.
func inBoundary(p *Package) bool {
	for _, seg := range errtypedBoundary {
		if p.PathHas(seg) {
			return true
		}
	}
	return false
}
