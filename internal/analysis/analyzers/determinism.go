package analyzers

import (
	"go/ast"
	"go/types"
	"strconv"

	"icistrategy/internal/analysis"
)

// Determinism polices the repo's core reproducibility guarantee: a seeded
// simulation run must be byte-identical across executions (the trace tests
// pin "seeded runs produce byte-identical span forests"). Wall clocks,
// process-global randomness, and scheduler-dependent channel selection all
// break that, so in simulation-reachable packages time must come from the
// injected virtual clock (simnet.Network.Now / trace.Tracer.SetClock) and
// randomness from blockcrypto/rng seeded by the run.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: `forbid wall clocks, global math/rand, and multi-channel selects in simulation-reachable packages

The simulator's determinism contract (seeded runs are byte-identical,
including span forests and metric snapshots) dies the moment simulation
code reads time.Now, the global math/rand source, or lets the runtime
scheduler pick between ready channels. Historical bug: wall-clock span
timestamps made "identical" seeded runs diff in CI. Use the injected
virtual clock and blockcrypto/rng; genuinely wall-clock code carries
//icilint:allow determinism(reason).

The parallel experiment runner adds a fourth hazard: deriving result
order from goroutine completion order. A worker that appends to a slice
captured from the enclosing scope records results in whatever order the
scheduler finished them; the sanctioned pattern is an indexed write into
a pre-sized slice (results[i] = ...), which makes result order the input
order by construction. The analyzer flags captured-slice appends inside
go statements, and inside function literals passed to par.Each (the
tree's one fork-join loop, which runs them on worker goroutines), in
simulation-reachable packages.`,
	Run: runDeterminism,
}

// deterministicPkgs is the simulation-reachable set: every package whose
// code can run under the discrete-event simulator's virtual clock.
// (experiments drives the simulator and feeds the deterministic tables, so
// it is held to the same bar; runner executes experiment cells on real
// goroutines but its results must land in input order regardless of
// completion order, so it is held to the same bar plus the
// completion-order rule; workload seeds every experiment and simulator run
// and signs its transactions on worker goroutines, so it is held to both;
// netx is the real-TCP path and is exempt.)
var deterministicPkgs = map[string]bool{
	"core":        true,
	"simnet":      true,
	"consensus":   true,
	"cluster":     true,
	"gossip":      true,
	"trace":       true,
	"experiments": true,
	"runner":      true,
	"workload":    true,
}

// wallClockFuncs are the time-package entry points that read the wall
// clock or the runtime timer heap.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runDeterminism(pass *analysis.Pass) error {
	if !deterministicPkgs[lastPathElem(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s in simulation-reachable package %s: global randomness breaks seeded-run byte-identity; use blockcrypto/rng seeded from the run", p, pass.Pkg.Name())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, n)
				if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
					pass.Reportf(n.Pos(),
						"time.%s in simulation-reachable package %s reads the wall clock; inject the virtual clock (simnet.Network.Now / Tracer.SetClock) or annotate icilint:allow determinism(reason)", fn.Name(), pass.Pkg.Name())
				}
				// A function literal handed to par.Each runs on its worker
				// goroutines: the same hazard as a go statement's body.
				if funcFromPkg(fn, "par", "Each") {
					if fl, ok := n.Args[len(n.Args)-1].(*ast.FuncLit); ok {
						checkCompletionOrderAppends(pass, fl)
					}
				}
			case *ast.GoStmt:
				if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkCompletionOrderAppends(pass, fl)
				}
			case *ast.SelectStmt:
				comms := 0
				for _, cl := range n.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
						comms++
					}
				}
				if comms >= 2 {
					pass.Reportf(n.Pos(),
						"select over %d channels in simulation-reachable package %s: the runtime picks a ready case pseudo-randomly, breaking seeded-run determinism", comms, pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil
}

// checkCompletionOrderAppends walks the body of a function literal started
// by a go statement (or run by par.Each's workers) and reports appends
// whose destination slice is captured from the enclosing scope: such a
// slice collects results in goroutine completion order, which the
// scheduler decides, not the seed. The
// sanctioned alternative is an indexed write into a pre-sized slice
// (results[i] = ...), which pins result order to input order no matter
// which worker finishes first. Nested function literals are skipped here —
// they are only hazardous if themselves launched with go, and the outer
// Inspect visits every go statement.
func checkCompletionOrderAppends(pass *analysis.Pass, fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if _, nested := n.(*ast.FuncLit); nested {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); !builtin || id.Name != "append" {
			return true
		}
		dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[dst]
		if obj == nil {
			return true
		}
		// Declared inside the goroutine's function literal (including its
		// parameters) means the slice is goroutine-local and safe; anything
		// else is shared state ordered by completion.
		if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
			return true
		}
		pass.Reportf(call.Pos(),
			"append to captured slice %s inside a goroutine in simulation-reachable package %s orders results by completion, which the scheduler decides; write into an indexed slot (results[i] = ...) so result order is the input order", dst.Name, pass.Pkg.Name())
		return true
	})
}
