package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags `for … range` over a map in non-test internal/ code:
// Go randomizes map iteration order per run, so any such loop whose
// effects can reach output bytes breaks bit-identical replay. A site
// passes without annotation when it is provably order-insensitive:
//
//   - it only accumulates into integers commutatively (x++, x += e,
//     with call-free guards and operands) — integer addition is
//     associative and commutative, so any visit order folds to the
//     same value; or
//   - it only collects the keys into a slice that the same function
//     later hands to sort/slices (the httpx header-writing pattern).
//
// Anything else needs an explicit `//vlint:unordered <reason>` line
// carrying the commutativity argument.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc: "flag map iteration in internal/ packages unless provably order-insensitive, " +
		"key-sorted, or annotated //vlint:unordered <reason>",
	Run: runMapRange,
}

func runMapRange(pass *Pass) error {
	pkg := pass.Pkg
	if !underInternal(pkg.Path) {
		return nil
	}
	for _, file := range pkg.Files {
		// Walk with the enclosing function body at hand: the key-sort
		// pattern is a property of the loop and its continuation.
		var withBody func(n ast.Node, body *ast.BlockStmt)
		withBody = func(n ast.Node, body *ast.BlockStmt) {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					withBody(n.Body, n.Body)
				}
				return
			case *ast.FuncLit:
				withBody(n.Body, n.Body)
				return
			case *ast.RangeStmt:
				checkMapRange(pass, file, n, body)
			}
			ast.Inspect(n, func(c ast.Node) bool {
				if c == n {
					return true
				}
				switch c.(type) {
				case *ast.FuncDecl, *ast.FuncLit, *ast.RangeStmt:
					withBody(c, body)
					return false
				}
				return true
			})
		}
		for _, decl := range file.Decls {
			withBody(decl, nil)
		}
	}
	return nil
}

func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	info := pass.Pkg.Info
	t := info.TypeOf(rng.X)
	if t == nil {
		return // unresolved (partial type info) — nothing provable either way
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if reason, ok := unorderedAt(pass.Fset(), file, rng.Pos()); ok {
		if reason == "" {
			pass.Reportf(rng.Pos(), "//vlint:unordered annotation needs a reason explaining why order cannot reach output")
		}
		return
	}
	if keysSortedLater(info, rng, funcBody) {
		return
	}
	if commutativeAccumulation(info, rng.Body.List) {
		return
	}
	pass.Reportf(rng.Pos(), "range over map: iteration order is randomized; sort the keys, "+
		"reduce commutatively into integers, or annotate //vlint:unordered <reason>")
}

// keysSortedLater reports the collect-then-sort idiom: the loop body
// is exactly `ks = append(ks, k)` for the range key, and the same
// function later passes ks to a sort or slices call.
func keysSortedLater(info *types.Info, rng *ast.RangeStmt, funcBody *ast.BlockStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rng.Value != nil {
		if v, ok := rng.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	dst, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	if a0, ok := call.Args[0].(*ast.Ident); !ok || a0.Name != dst.Name {
		return false
	}
	if a1, ok := call.Args[1].(*ast.Ident); !ok || a1.Name != key.Name {
		return false
	}
	if funcBody == nil {
		return false
	}
	// The continuation must hand the slice to sort/slices before use.
	sorted := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[x].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && id.Name == dst.Name {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// commutativeAccumulation reports whether every statement is an
// order-insensitive integer fold: x++/x--, x op= e for commutative
// ops on integer lvalues, call-free if-guards around the same, and
// continue. Calls are banned anywhere (they could observe order);
// floats are banned because float addition is not associative.
func commutativeAccumulation(info *types.Info, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			if !isIntegerExpr(info, s.X) {
				return false
			}
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			default:
				return false
			}
			for _, lhs := range s.Lhs {
				if !isIntegerExpr(info, lhs) {
					return false
				}
			}
			for _, rhs := range s.Rhs {
				if containsCall(rhs) {
					return false
				}
			}
		case *ast.IfStmt:
			if s.Init != nil || containsCall(s.Cond) {
				return false
			}
			if !commutativeAccumulation(info, s.Body.List) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
			case *ast.BlockStmt:
				if !commutativeAccumulation(info, e.List) {
					return false
				}
			case *ast.IfStmt:
				if !commutativeAccumulation(info, []ast.Stmt{e}) {
					return false
				}
			default:
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		case *ast.BlockStmt:
			if !commutativeAccumulation(info, s.List) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}
