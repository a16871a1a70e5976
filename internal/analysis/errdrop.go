package analysis

import (
	"go/ast"
	"go/types"
)

// ErrDrop flags discarded error returns from durability-critical calls in
// the WAL layer and the daemon.
//
// In internal/serve/wal and cmd/easybod, a dropped error from Sync, Close,
// Append, Compact, Rename, or a snapshot write is a dropped durability
// guarantee: the caller acknowledged something the disk may not hold. The
// analyzer flags calls to a fixed set of durability verbs whose final
// result is an error when that error is discarded — as a bare expression
// statement, a defer/go statement, or an assignment to blank. Deliberate
// best-effort discards (forensics files, close-on-error-path) stay, but
// each must carry a reasoned //easybolint:ok errdrop directive so the
// decision is visible at the call site.
var ErrDrop = &Analyzer{
	Name:    "errdrop",
	Doc:     "discarded error from a durability-critical call (wal, easybod)",
	Applies: isDurability,
	Run:     runErrDrop,
}

// durabilityVerbs are the method/function names whose errors carry
// durability meaning in the scoped packages.
var durabilityVerbs = map[string]bool{
	"Sync": true, "Close": true, "Append": true, "Compact": true,
	"Rename": true, "Remove": true, "RemoveAll": true,
	"Write": true, "WriteString": true, "WriteFile": true,
	"Flush": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true,
	"Quarantine": true, "Snapshot": true,
	// The same verbs on the WAL's filesystem seam (wal.fsys), and its
	// whole-file write.
	"rename": true, "remove": true, "removeAll": true, "truncate": true,
	"mkdir": true, "mkdirAll": true, "syncDir": true, "writeFileSync": true,
	// Cluster ownership-transfer verbs: a dropped error here means a
	// session served from a copy whose fence, transfer, or replay silently
	// failed — a forked history waiting to happen.
	"Fence": true, "Adopt": true, "Release": true, "Forward": true,
	"BeginHandoff": true, "AbortHandoff": true, "CompleteHandoff": true,
	"InstallSnapshot": true,
	// Group-commit verbs: WaitDurable's error is the ack itself — dropping
	// it acknowledges a write the committer may have failed to sync — and a
	// dropped BeginCompact error loses the seal that makes the snapshot cut
	// safe to prune behind.
	"WaitDurable": true, "BeginCompact": true,
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				pass.checkDroppedCall(s.X, "result ignored")
			case *ast.DeferStmt:
				pass.checkDroppedCall(s.Call, "error lost in defer")
			case *ast.GoStmt:
				pass.checkDroppedCall(s.Call, "error lost in go statement")
			case *ast.AssignStmt:
				pass.checkBlankAssign(s)
			}
			return true
		})
	}
}

// checkDroppedCall reports a durability call whose entire result list is
// thrown away.
func (p *Pass) checkDroppedCall(e ast.Expr, how string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := calleeName(call)
	if !ok || !durabilityVerbs[name] {
		return
	}
	if !lastResultIsError(p, call) {
		return
	}
	p.Reportf(call.Pos(),
		"%s returns an error that is discarded (%s); handle it or annotate //easybolint:ok errdrop <reason>", name, how)
}

// checkBlankAssign reports `_ = call()` / `n, _ := call()` where the
// error-typed results of a durability call land in blanks.
func (p *Pass) checkBlankAssign(s *ast.AssignStmt) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := calleeName(call)
	if !ok || !durabilityVerbs[name] {
		return
	}
	results := resultTypes(p, call)
	if len(results) != len(s.Lhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, isIdent := lhs.(*ast.Ident)
		if !isIdent || id.Name != "_" {
			continue
		}
		if isErrorType(results[i]) {
			p.Reportf(call.Pos(),
				"%s returns an error that is assigned to _; handle it or annotate //easybolint:ok errdrop <reason>", name)
			return
		}
	}
}

// calleeName extracts the bare function/method name of a call.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// resultTypes returns the call's result types (len 0 for void).
func resultTypes(p *Pass, call *ast.CallExpr) []types.Type {
	tv, ok := p.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		out := make([]types.Type, tuple.Len())
		for i := 0; i < tuple.Len(); i++ {
			out[i] = tuple.At(i).Type()
		}
		return out
	}
	if tv.Type == types.Typ[types.Invalid] {
		return nil
	}
	return []types.Type{tv.Type}
}

func lastResultIsError(p *Pass, call *ast.CallExpr) bool {
	results := resultTypes(p, call)
	return len(results) > 0 && isErrorType(results[len(results)-1])
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}
