package analysis

// HotLock proves the hot path lock-free: no mutex, condition-variable,
// once, waitgroup-wait or channel operation may be reachable from the
// batch kernels (StepBatch, SelectBatch, SimulateSegmentCoded,
// selectPlain) or any //treelint:plain function, directly or through
// package-local callees. The engine's concurrency model (DESIGN.md §8)
// puts all synchronization at piece boundaries in internal/parallel; a
// lock inside a kernel would serialize the per-event loop and is almost
// always a bug. sync.WaitGroup.Add/Done and sync.Pool are allowed: both
// are boundary bookkeeping, not blocking operations. Deliberate sites
// (the tagdfa lazy-compile Once) opt out with //treelint:partial.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotLock is the no-synchronization-on-the-hot-path analyzer.
var HotLock = &Analyzer{
	Name: "hotlock",
	Doc: "no sync.Mutex/RWMutex/Once/Cond/Map operations, WaitGroup.Wait, or channel " +
		"sends/receives/closes may be reachable from the batch kernels or any " +
		"//treelint:plain function; annotate deliberate sites with //treelint:partial <reason>",
	Run: runHotLock,
}

// hotRoots are the kernel entry points checked even without a
// //treelint:plain marker — the batch kernels the coded drivers and the
// chunk-parallel engine call per batch or segment, and the per-event
// Select kernel.
var hotRoots = map[string]bool{
	"StepBatch":            true,
	"SelectBatch":          true,
	"SimulateSegmentCoded": true,
	"selectPlain":          true,
}

// bannedSyncMethods maps sync.<Type> method names to a diagnosis. Method
// sets are matched by receiver type so a field named Lock on an unrelated
// struct is not flagged.
var bannedSyncMethods = map[string]map[string]string{
	"Mutex":   {"Lock": "sync.Mutex.Lock", "Unlock": "sync.Mutex.Unlock", "TryLock": "sync.Mutex.TryLock"},
	"RWMutex": {"Lock": "sync.RWMutex.Lock", "Unlock": "sync.RWMutex.Unlock", "RLock": "sync.RWMutex.RLock", "RUnlock": "sync.RWMutex.RUnlock", "TryLock": "sync.RWMutex.TryLock", "TryRLock": "sync.RWMutex.TryRLock"},
	"Once":    {"Do": "sync.Once.Do"},
	"Cond":    {"Wait": "sync.Cond.Wait", "Signal": "sync.Cond.Signal", "Broadcast": "sync.Cond.Broadcast"},
	"WaitGroup": {
		// Add and Done are atomic counter updates; only Wait blocks.
		"Wait": "sync.WaitGroup.Wait",
	},
	"Map": {"Load": "sync.Map.Load", "Store": "sync.Map.Store", "LoadOrStore": "sync.Map.LoadOrStore", "LoadAndDelete": "sync.Map.LoadAndDelete", "Delete": "sync.Map.Delete", "Range": "sync.Map.Range", "Swap": "sync.Map.Swap", "CompareAndSwap": "sync.Map.CompareAndSwap", "CompareAndDelete": "sync.Map.CompareAndDelete"},
}

// A syncSite is one synchronization operation inside a function body.
type syncSite struct {
	pos  token.Pos
	what string
}

// syncSummary caches per-function sync operations and local call edges.
type syncSummary struct {
	sites []syncSite
	calls []*FuncNode
}

func runHotLock(pass *Pass) error {
	cg := BuildCallGraph(pass)
	summaries := map[*FuncNode]*syncSummary{}
	summarize := func(n *FuncNode) *syncSummary {
		if s, ok := summaries[n]; ok {
			return s
		}
		s := &syncSummary{}
		summaries[n] = s
		collectSyncOps(pass, cg, n, s)
		return s
	}

	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !hotRoots[fn.Name.Name] && !pass.FuncHasDirective(f, fn, "plain") {
				continue
			}
			root := cg.Node(pass.TypesInfo.Defs[fn.Name])
			if root == nil {
				continue
			}
			visited := map[*FuncNode]bool{}
			var visit func(n *FuncNode, path []string)
			visit = func(n *FuncNode, path []string) {
				if visited[n] {
					return
				}
				visited[n] = true
				s := summarize(n)
				for _, site := range s.sites {
					if reported[site.pos] || pass.siteExempt(site.pos) {
						continue
					}
					reported[site.pos] = true
					via := ""
					if len(path) > 0 {
						via = " via " + strings.Join(path, " → ")
					}
					pass.Reportf(site.pos, "hot path %s reaches %s%s (lock-free contract)",
						fn.Name.Name, site.what, via)
				}
				for _, c := range s.calls {
					if funcExempt(pass, c) {
						continue
					}
					visit(c, append(path[:len(path):len(path)], c.Name()))
				}
			}
			visit(root, nil)
		}
	}
	return nil
}

// collectSyncOps fills the summary for one function: banned sync-package
// method calls, channel operations, and package-local call edges on
// reachable blocks. Only reachable blocks count — a channel send behind a
// constant-false debug flag is compiled out and does not break the
// contract.
func collectSyncOps(pass *Pass, cg *CallGraph, n *FuncNode, s *syncSummary) {
	body := n.Body()
	if body == nil {
		return
	}
	g := BuildCFG(body, pass.TypesInfo)
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		// A range over a channel blocks on every receive; the ranged
		// expression is the head block's node.
		if strings.HasPrefix(b.Kind, "range.head") {
			for _, node := range b.Nodes {
				if e, ok := node.(ast.Expr); ok {
					if _, isChan := typeOf(pass, e).(*types.Chan); isChan {
						s.sites = append(s.sites, syncSite{pos: e.Pos(), what: "a range over a channel"})
					}
				}
			}
		}
		for _, node := range b.Nodes {
			walk(node, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					return false // bound closures are separate nodes
				case *ast.SendStmt:
					s.sites = append(s.sites, syncSite{pos: x.Pos(), what: "a channel send"})
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						s.sites = append(s.sites, syncSite{pos: x.Pos(), what: "a channel receive"})
					}
				case *ast.CallExpr:
					if id, ok := x.Fun.(*ast.Ident); ok {
						if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "close" {
							s.sites = append(s.sites, syncSite{pos: x.Pos(), what: "a channel close"})
							return true
						}
					}
					if what, ok := bannedSyncCall(pass, x); ok {
						s.sites = append(s.sites, syncSite{pos: x.Pos(), what: what})
						return true
					}
					if callee := cg.CalleeOf(x); callee != nil {
						s.calls = append(s.calls, callee)
					}
				}
				return true
			})
		}
	}
}

// bannedSyncCall reports whether call is a method call on one of the
// banned sync package types (by checked receiver type, seen through
// pointers and embedding via the selected method's receiver).
func bannedSyncCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false
	}
	if methods, ok := bannedSyncMethods[obj.Name()]; ok {
		if what, ok := methods[fn.Name()]; ok {
			return what, true
		}
	}
	return "", false
}
