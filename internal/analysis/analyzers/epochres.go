package analyzers

import (
	"go/ast"

	"icistrategy/internal/analysis"
)

// EpochRes keeps placement behind the epoch type. Membership is
// epoch-versioned (core.EpochMap): which members hold a chunk depends on
// the epoch the block was written under and where its chunks migrated
// since, and Epoch.Owners / Epoch.Ranked / EpochMap.Holders are the calls
// that say which epoch a decision was made under. The free rendezvous
// functions take a bare member slice and say nothing, which is how the
// PR-8 bug was written: retrieval ranked owners over the live roster for a
// block placed under an earlier one, and after churn every read missed.
//
// So in the packages that place chunks (core, netx, gateway) the free
// functions Owners, IsOwner and RankedMembers may be called only by each
// other, by methods of the epoch types, and by the Accountant, which models
// a static network and has no epochs. Everything else names its epoch:
// m.At(h).Owners(…), m.Current().Owners(…), m.Holders(…).
var EpochRes = &analysis.Analyzer{
	Name: "epochres",
	Doc: `flag rendezvous placement computed outside the epoch type

Historical bug (PR 8): retrieval ranked owners over the cluster's live
member list while the block's chunks had been placed under an earlier
membership epoch; after churn the ranking diverged and reads missed every
replica. Call Epoch.Owners / Epoch.Ranked / EpochMap.Holders on the epoch
the decision is made under (At, PlacementAt, Current) instead of the free
Owners/IsOwner/RankedMembers over a member slice.`,
	Run: runEpochRes,
}

// epochresPkgs are the packages that place chunks (plus the fixture).
var epochresPkgs = map[string]bool{"core": true, "netx": true, "gateway": true, "epochstore": true}

// placementFree reports whether name is one of the free rendezvous
// functions; placementRecv whether a receiver type may call them.
func placementFree(name string) bool {
	return name == "Owners" || name == "IsOwner" || name == "RankedMembers"
}

func placementRecv(name string) bool {
	return name == "Epoch" || name == "EpochMap" || name == "Accountant"
}

func runEpochRes(pass *analysis.Pass) error {
	if !epochresPkgs[lastPathElem(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || mayPlace(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.TypesInfo, call)
				if fn == nil || fn.Pkg() == nil || recvNamed(fn) != nil || !placementFree(fn.Name()) || !epochresPkgs[lastPathElem(fn.Pkg().Path())] {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s over a bare member slice; placement is epoch-versioned — call Epoch.Owners/Ranked or EpochMap.Holders on the epoch the decision is made under (At, PlacementAt, Current), or annotate icilint:allow epochres(reason)", fn.Name())
				return true
			})
		}
	}
	return nil
}

// mayPlace reports whether fd is one of the functions allowed to call the
// free rendezvous functions: those functions themselves, and methods of the
// epoch types and the Accountant.
func mayPlace(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return placementFree(fd.Name.Name)
	}
	if len(fd.Recv.List) == 0 {
		return false
	}
	named := namedOrNil(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type))
	return named != nil && placementRecv(named.Obj().Name())
}
