// Package lockhold flags blocking operations performed while a sync
// mutex is held. A goroutine that parks inside a critical section —
// on a channel send or receive, a default-less select, a WaitGroup or
// Cond wait, a sleep, or network I/O — stalls every other goroutine
// contending for the lock, and when the unblocking party needs that
// same lock the program deadlocks. The serve layer runs exactly this
// shape (mutex-guarded job state next to channels), so the hazard is
// one refactor away at all times.
//
// A critical section opens at a statement-list-level `mu.Lock()` or
// `mu.RLock()` call on a sync mutex and closes at the matching plain
// `mu.Unlock()`/`mu.RUnlock()` statement (a *deferred* unlock holds
// the lock to the end of the enclosing list). Within the section the
// analyzer reports, in any nesting:
//
//   - channel sends, receives and range-over-channel loops;
//   - select statements with no default case;
//   - sync.WaitGroup.Wait / sync.Cond.Wait, time.Sleep, and blocking
//     net / net/http calls;
//   - calls to module functions that (transitively) perform one of the
//     above, via a may-block summary computed over the whole load's
//     call graph (lint.Program.Fixpoint).
//
// Mutexes are matched by the printed receiver expression ("s.mu"), so
// aliased locks escape the analysis; func literals, go statements and
// deferred calls are boundaries (their bodies do not run inside the
// section). The may-block summary over-approximates — it cannot see
// that a callee's send targets a buffered channel that never fills —
// so provably bounded waits are suppressed with
// `//simlint:allow lockhold -- reason`.
package lockhold

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"uvmsim/internal/lint"
)

// Analyzer is the lockhold checker.
var Analyzer = &lint.Analyzer{
	Name: "lockhold",
	Doc:  "flags channel operations, waits, sleeps and blocking I/O performed while a sync mutex is held",
	Run:  run,
}

// summaries caches the may-block Fixpoint per Program.
var summaries = make(map[*lint.Program]map[*types.Func]string)

func mayBlock(prog *lint.Program) map[*types.Func]string {
	if s, ok := summaries[prog]; ok {
		return s
	}
	s := prog.Fixpoint(func(fn *types.Func, decl *lint.FuncDecl) (string, bool) {
		var what string
		scanBlocking(decl.Pkg.Info, decl.Decl.Body, nil, nil, func(pos token.Pos, w string) bool {
			what = w
			return true
		})
		if what != "" {
			return "performs " + what, true
		}
		return "", false
	})
	summaries[prog] = s
	return s
}

func run(pass *lint.Pass) {
	blocks := mayBlock(pass.Prog)
	for _, f := range pass.Files {
		lint.InspectStmtLists(f, func(list []ast.Stmt) {
			for i, st := range list {
				recv, unlockName, ok := lockStmt(pass, st)
				if !ok {
					continue
				}
				lockLine := pass.Fset.Position(st.Pos()).Line
				isUnlock := func(call *ast.CallExpr) bool {
					return unlockCall(pass, call, recv, unlockName)
				}
				for j := i + 1; j < len(list); j++ {
					released := scanBlocking(pass.Info, list[j], isUnlock, blocks, func(pos token.Pos, what string) bool {
						pass.Reportf(pos, "holding %s (locked at line %d) across %s; release the lock before blocking", recv, lockLine, what)
						return false
					})
					if released {
						break
					}
				}
			}
		})
	}
}

// lockStmt recognizes a statement-list-level `recv.Lock()` or
// `recv.RLock()` on a sync mutex and returns the printed receiver and
// the matching unlock method name.
func lockStmt(pass *lint.Pass, st ast.Stmt) (recv, unlockName string, ok bool) {
	es, isExpr := st.(*ast.ExprStmt)
	if !isExpr {
		return "", "", false
	}
	call, isCall := ast.Unparen(es.X).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn := lint.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock":
		unlockName = "Unlock"
	case "RLock":
		unlockName = "RUnlock"
	default:
		return "", "", false
	}
	return render(pass.Fset, sel.X), unlockName, true
}

// unlockCall reports whether call is `recv.<unlockName>()` on a sync
// mutex.
func unlockCall(pass *lint.Pass, call *ast.CallExpr, recv, unlockName string) bool {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return false
	}
	fn := lint.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != unlockName {
		return false
	}
	return render(pass.Fset, sel.X) == recv
}

// netBlocking names the net / net/http entry points that park the
// goroutine (pure helpers like net.JoinHostPort are not listed).
var netBlocking = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialContext": true,
	"Listen": true, "ListenPacket": true, "Accept": true,
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"Do": true, "Get": true, "Head": true, "Post": true, "PostForm": true,
	"Serve": true, "ListenAndServe": true, "ListenAndServeTLS": true,
	"Shutdown": true, "Close": false, // Close is quick; listed for clarity
}

// blockingCallee classifies direct calls into the standard library
// that block.
func blockingCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := lint.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	switch {
	case path == "sync" && fn.Name() == "Wait":
		return "a " + lint.FuncName(fn) + " call", true
	case path == "time" && fn.Name() == "Sleep":
		return "a time.Sleep", true
	case (path == "net" || strings.HasPrefix(path, "net/")) && netBlocking[fn.Name()]:
		return "a blocking " + lint.FuncName(fn) + " call", true
	}
	return "", false
}

// scanBlocking walks n reporting blocking operations to onOp. Func
// literals, go statements and deferred calls are boundaries. A select
// with a default case is non-blocking: only its clause bodies are
// scanned. isUnlock, when non-nil, recognizes the tracked lock's
// release: the walk stops there and scanBlocking returns true. onOp
// returns true to stop the walk early (first-match mode). blocks,
// when non-nil, reports calls to module functions with a may-block
// summary.
func scanBlocking(info *types.Info, n ast.Node, isUnlock func(*ast.CallExpr) bool, blocks map[*types.Func]string, onOp func(pos token.Pos, what string) bool) bool {
	stopped := false
	emit := func(pos token.Pos, what string) {
		if onOp(pos, what) {
			stopped = true
		}
	}
	var walk func(ast.Node)
	walk = func(n ast.Node) {
		if n == nil || stopped {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if stopped {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false
			case *ast.SelectStmt:
				if hasDefault(m) {
					for _, c := range m.Body.List {
						if cc, ok := c.(*ast.CommClause); ok {
							for _, st := range cc.Body {
								walk(st)
							}
						}
					}
				} else {
					emit(m.Pos(), "a select with no default case")
				}
				return false
			case *ast.SendStmt:
				emit(m.Arrow, "a channel send")
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					emit(m.OpPos, "a channel receive")
				}
			case *ast.RangeStmt:
				if t := info.TypeOf(m.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						emit(m.Pos(), "a range over a channel")
						return false
					}
				}
			case *ast.CallExpr:
				if isUnlock != nil && isUnlock(m) {
					stopped = true
					return false
				}
				if what, ok := blockingCallee(info, m); ok {
					emit(m.Pos(), what)
					return true
				}
				if blocks != nil {
					if fn := lint.CalleeFunc(info, m); fn != nil {
						if reason, ok := blocks[fn]; ok {
							emit(m.Pos(), "a call to "+lint.FuncName(fn)+", which "+reason)
						}
					}
				}
			}
			return true
		})
	}
	walk(n)
	return stopped
}

// hasDefault reports whether the select has a default clause.
func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// render prints e for mutex matching and diagnostics.
func render(fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "<expr>"
	}
	return b.String()
}
