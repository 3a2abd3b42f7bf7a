package checks

import (
	"go/ast"

	"sketchtree/internal/analysis"
)

// LockDiscipline enforces the Safe wrapper's exclusion contract: an
// exported Safe method may touch the wrapped engine (the s.st field)
// only after acquiring s.mu.Lock or s.mu.RLock on the same control
// path, or it must read through s.reader() (which returns a published
// frozen engine, or takes the read lock before handing out the live
// one; the paired s.release drops it). The few deliberate lock-free
// reads — Stats and EnableMetrics ride on the obs layer's atomics —
// carry //lint:allow lockdiscipline with the reason.
//
// The check is a linear scan of each method body: statements are
// visited in order, a call to s.mu.(R)Lock() arms the "locked" state
// for the statements that follow at the same nesting level (and
// everything nested under them), and any reference to s.st while
// unlocked is flagged. Unexported helpers are exempt — their locking
// contract is the caller's (and is documented per helper).
var LockDiscipline = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "exported Safe methods lock s.mu (or read through s.reader()) before touching the wrapped engine",
	Run:  runLockDiscipline,
}

const (
	engineField = "st"
	mutexField  = "mu"
)

func runLockDiscipline(pass *analysis.Pass) {
	for _, p := range pass.Module.Packages {
		if p.RelDir != "." {
			continue
		}
		for _, fd := range funcDecls(p) {
			if fd.File.Test || fd.Decl.Body == nil {
				continue
			}
			if recvTypeName(fd.Decl) != wrapperType || !ast.IsExported(fd.Decl.Name.Name) {
				continue
			}
			recv := recvName(fd.Decl)
			if recv == "" {
				continue
			}
			c := &lockChecker{pass: pass, recv: recv, method: fd.Decl.Name.Name}
			locked := false
			c.stmts(fd.Decl.Body.List, &locked)
		}
	}
}

type lockChecker struct {
	pass   *analysis.Pass
	recv   string
	method string
}

// mutexCall classifies a statement that is exactly a recv.mu.X() call.
func (c *lockChecker) mutexCall(stmt ast.Stmt) string {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	mu, ok := sel.X.(*ast.SelectorExpr)
	if !ok || mu.Sel.Name != mutexField {
		return ""
	}
	if id, ok := mu.X.(*ast.Ident); !ok || id.Name != c.recv {
		return ""
	}
	return sel.Sel.Name
}

// stmts scans a statement list in order, tracking the lock state.
// Nested blocks see the state at their entry; state changes inside
// them do not leak back out (conservative: a lock taken inside a
// branch does not cover the code after the branch).
func (c *lockChecker) stmts(list []ast.Stmt, locked *bool) {
	for _, stmt := range list {
		switch m := c.mutexCall(stmt); m {
		case "Lock", "RLock":
			*locked = true
			continue
		case "Unlock", "RUnlock":
			*locked = false
			continue
		}
		c.stmt(stmt, *locked)
	}
}

// stmt dispatches one statement: compound statements get their
// non-body expressions checked and their bodies scanned recursively;
// everything else is checked wholesale.
func (c *lockChecker) stmt(stmt ast.Stmt, locked bool) {
	nested := locked
	switch x := stmt.(type) {
	case *ast.DeferStmt:
		// defer s.mu.Unlock() pairs with the Lock already seen; a
		// deferred closure runs at return time under whatever state the
		// body established, so it is not scanned.
		return
	case *ast.BlockStmt:
		c.stmts(x.List, &nested)
	case *ast.IfStmt:
		if x.Init != nil {
			c.stmt(x.Init, locked)
		}
		c.exprCheck(x.Cond, locked)
		c.stmt(x.Body, locked)
		if x.Else != nil {
			c.stmt(x.Else, locked)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			c.stmt(x.Init, locked)
		}
		if x.Cond != nil {
			c.exprCheck(x.Cond, locked)
		}
		c.stmt(x.Body, locked)
	case *ast.RangeStmt:
		c.exprCheck(x.X, locked)
		c.stmt(x.Body, locked)
	case *ast.SwitchStmt:
		if x.Init != nil {
			c.stmt(x.Init, locked)
		}
		if x.Tag != nil {
			c.exprCheck(x.Tag, locked)
		}
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				for _, e := range clause.List {
					c.exprCheck(e, locked)
				}
				c.stmts(clause.Body, &nested)
				nested = locked
			}
		}
	case *ast.TypeSwitchStmt:
		c.stmt(x.Body, locked)
	case *ast.SelectStmt:
		c.stmt(x.Body, locked)
	default:
		c.nodeCheck(stmt, locked)
	}
}

// exprCheck flags engine-field references in a single expression.
func (c *lockChecker) exprCheck(e ast.Expr, locked bool) {
	if e != nil {
		c.nodeCheck(e, locked)
	}
}

// nodeCheck walks any node for recv.st references while unlocked.
func (c *lockChecker) nodeCheck(n ast.Node, locked bool) {
	if locked {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != engineField {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != c.recv {
			return true
		}
		c.pass.Reportf(sel.Pos(),
			"(*%s).%s touches %s.%s without holding %s.%s (no Lock/RLock on this path); lock, or serve from the snapshot",
			wrapperType, c.method, c.recv, engineField, c.recv, mutexField)
		return true
	})
}
