package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"icistrategy/internal/analysis"
)

// EpochRes encodes the PR-8 stale-placement bug family: after membership
// became epoch-versioned, every placement decision about an existing
// block must flow from the epoch the block was WRITTEN under
// (epochAt/membersAt/placementAt), not from the raw live roster — a
// rendezvous hash over today's members silently disagrees with where an
// earlier epoch actually put the chunks, and retrieval asks the wrong
// nodes.
//
// The check is deliberately scoped to "epoch-aware" functions — ones
// that already touch the historical-epoch API — because those are
// exactly the functions handling blocks that may predate the current
// roster. Inside such a function, passing a raw roster to a placement
// call (core.Owners, RankedMembers, IsOwner) is flagged when the members
// argument is:
//
//   - a roster field selector like n.cluster.members or cl.ids — live
//     state, not a resolved epoch — or
//   - currentEpoch().members / a .members read off a *current* epoch
//     value obtained via currentEpoch, which pins "now" onto a block
//     that may be older.
//
// Plain identifiers (parameters, locals) and .members reads off values
// produced by the height-resolving API stay silent, so the fixed shapes
// (ep := c.epochAt(h); Owners(seed, ep.members, ...)) never trigger.
// Intentional current-epoch placement in an epoch-aware function — e.g.
// a write path that also archives — is annotated:
// //icilint:allow epochres(reason).
var EpochRes = &analysis.Analyzer{
	Name: "epochres",
	Doc: `flag placement computed from the raw live roster in functions handling epoch-versioned blocks

Historical bug (PR 8): retrieval ranked owners over the cluster's live
member list while the block's chunks had been placed under an earlier
membership epoch; after churn the ranking diverged and reads missed every
replica. Resolve the roster at the block's write height (epochAt /
membersAt / placementAt) before calling Owners/RankedMembers/IsOwner.`,
	Run: runEpochRes,
}

// epochMarkers are the historical-epoch API calls that make a function
// "epoch-aware". currentEpoch is deliberately absent: a function that
// only ever works on now-state (the write path) is allowed to place by
// the live roster.
var epochMarkers = map[string]bool{
	"epochAt":          true,
	"placementAt":      true,
	"partsAt":          true,
	"membersAt":        true,
	"ClusterMembersAt": true,
	"archivedInfo":     true,
	"epochForMap":      true,
	"epochHolders":     true,
}

// rosterFields are field names that hold a live member roster.
var rosterFields = map[string]bool{
	"members": true,
	"Members": true,
	"ids":     true,
	"IDs":     true,
}

func runEpochRes(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !callsEpochMarker(pass.TypesInfo, fd.Body) {
				continue
			}
			checkEpochRes(pass, fd)
		}
	}
	return nil
}

// callsEpochMarker reports whether body contains a call to any of the
// historical-epoch API functions.
func callsEpochMarker(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if fn := calleeFunc(info, call); fn != nil && epochMarkers[fn.Name()] {
			found = true
		}
		return !found
	})
	return found
}

func checkEpochRes(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if !isPlacementCall(fn) || len(call.Args) < 2 {
			return true
		}
		if src := rawRosterSource(pass.TypesInfo, call.Args[1]); src != "" {
			pass.Reportf(call.Args[1].Pos(),
				"placement over raw roster %s in an epoch-aware function; chunks of an existing block live under its write epoch — resolve members at the block's height (epochAt/membersAt) or annotate icilint:allow epochres(reason)", src)
		}
		return true
	})
}

// isPlacementCall matches the rendezvous placement entry points. The
// members argument is Args[1] for all three.
func isPlacementCall(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Name() {
	case "Owners", "RankedMembers", "IsOwner":
	default:
		return false
	}
	return pkgPathMatches(fn.Pkg().Path(), "core") || pkgPathMatches(fn.Pkg().Path(), "epochstore")
}

// rawRosterSource classifies the members argument, returning a short
// description of the raw-roster source it flows from, or "" when the
// expression is epoch-resolved (or too indirect to judge).
func rawRosterSource(info *types.Info, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "" // params, locals, and call results stay silent
	}
	if !rosterFields[sel.Sel.Name] {
		return ""
	}
	switch base := ast.Unparen(sel.X).(type) {
	case *ast.CallExpr:
		// currentEpoch().members pins the live epoch onto the block.
		if fn := calleeFunc(info, base); fn != nil && fn.Name() == "currentEpoch" {
			return renderSelector(sel)
		}
		return "" // epochAt(h).members and friends: resolved
	default:
		// A .members/.ids field read off live state (cluster, roster
		// struct) unless the base value is itself an epoch type.
		if t := info.TypeOf(sel.X); t != nil {
			if n := namedOrNil(t); n != nil && strings.Contains(strings.ToLower(n.Obj().Name()), "epoch") {
				return ""
			}
		}
		return renderSelector(sel)
	}
}

// renderSelector prints a compact dotted path for the message.
func renderSelector(sel *ast.SelectorExpr) string {
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return x.Name + "." + sel.Sel.Name
	case *ast.SelectorExpr:
		return renderSelector(x) + "." + sel.Sel.Name
	case *ast.CallExpr:
		if inner, ok := x.Fun.(*ast.SelectorExpr); ok {
			return inner.Sel.Name + "()." + sel.Sel.Name
		}
		if id, ok := x.Fun.(*ast.Ident); ok {
			return id.Name + "()." + sel.Sel.Name
		}
	}
	return sel.Sel.Name
}
