package analysis

// A static, package-local call graph: the summary substrate that lets the
// flow-sensitive analyzers see through module-local helpers (core's
// flushObs, tagdfa's compiled, parallel's piece flusher) without whole-
// program analysis. Resolution is intentionally conservative-by-omission:
// only calls the type checker binds to a function or method declared in
// the package under analysis, plus locally-bound closures
// (name := func(...){...}), produce edges. Interface dispatch, function
// values passed around, and cross-package calls are invisible — the
// compiler-diagnostic gate (cmd/allocgate) backstops what the AST cannot
// see.

import (
	"go/ast"
	"go/types"
)

// A CallGraph indexes the functions of one package and resolves the
// package-local callees of any body.
type CallGraph struct {
	pass *Pass
	// decls maps the *types.Func of every function/method declared in the
	// package to its declaration.
	decls map[types.Object]*FuncNode
}

// A FuncNode is one analyzable function body: a package-level FuncDecl or
// a locally-bound FuncLit.
type FuncNode struct {
	// Obj is the declared *types.Func (FuncDecls) or the *types.Var the
	// closure is bound to (FuncLits).
	Obj types.Object
	// Decl is non-nil for package-level functions and methods.
	Decl *ast.FuncDecl
	// Lit is non-nil for locally-bound closures.
	Lit *ast.FuncLit
	// File is the file the body lives in (directive lookups need it).
	File *ast.File
}

// Body returns the function's block.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Name returns a human-readable name for diagnostics: the declared name,
// or the closure's bound variable.
func (n *FuncNode) Name() string {
	if n.Decl != nil {
		return n.Decl.Name.Name
	}
	return n.Obj.Name()
}

// BuildCallGraph indexes every function and method declaration of the
// pass's package, plus closures bound to a local variable at their
// declaration (name := func(...){...} — the only closure form the
// analyzers chase, and the one the engine's helpers use).
func BuildCallGraph(pass *Pass) *CallGraph {
	cg := &CallGraph{pass: pass, decls: map[types.Object]*FuncNode{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil {
				continue
			}
			cg.decls[obj] = &FuncNode{Obj: obj, Decl: fn, File: f}
		}
		// Locally-bound closures, anywhere in the file (including inside
		// other functions).
		file := f
		walk(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					// Reassignment of an existing variable: drop the
					// binding so a two-faced closure variable resolves to
					// nothing rather than the wrong body.
					if prev := pass.TypesInfo.Uses[id]; prev != nil {
						delete(cg.decls, prev)
					}
					continue
				}
				cg.decls[obj] = &FuncNode{Obj: obj, Lit: lit, File: file}
			}
			return true
		})
	}
	return cg
}

// Node returns the FuncNode for a declared function object, or nil.
func (cg *CallGraph) Node(obj types.Object) *FuncNode { return cg.decls[obj] }

// Decls returns every indexed function node (iteration order is
// unspecified; callers sort by position when it matters).
func (cg *CallGraph) Decls() map[types.Object]*FuncNode { return cg.decls }

// CalleeOf resolves one call expression to a package-local function node,
// or nil when the callee is dynamic, cross-package or a builtin.
func (cg *CallGraph) CalleeOf(call *ast.CallExpr) *FuncNode {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = cg.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = cg.pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	if obj == nil {
		return nil
	}
	if fn, ok := obj.(*types.Func); ok {
		if fn.Pkg() != cg.pass.Pkg {
			return nil
		}
		return cg.decls[obj]
	}
	// A plain variable: resolves only if it is a locally-bound closure.
	return cg.decls[obj]
}
