package analyzers

import (
	"go/ast"
	"go/constant"
	"regexp"

	"icistrategy/internal/analysis"
)

// MetricName keeps the metrics namespace closed and greppable: every
// counter registered on a metrics.Registry must use a
// compile-time-constant name in one of the repo's four namespaces, so the
// Snapshot/JSON/CSV column set is stable across runs and a dashboard or CI
// grep never misses a metric because its name was assembled at runtime.
var MetricName = &analysis.Analyzer{
	Name: "metricname",
	Doc: `require literal, namespaced metrics.Registry names (^(ici|consensus|simnet|netx)\.[a-z_.]+$)

The experiment tables, the -metrics JSON dump, and the CI trace-smoke job
all key on exact metric names ("ici.distribute.proposals"). A dynamically
built or off-namespace name silently adds an un-greppable column and
breaks snapshot diffing. Names must be string literals (or consts) in the
ici/consensus/simnet/netx namespaces, lower-case dotted words.`,
	Run: runMetricName,
}

var metricNameRE = regexp.MustCompile(`^(ici|consensus|simnet|netx)\.[a-z_.]+$`)

func runMetricName(pass *analysis.Pass) error {
	// The metrics package itself defines the Registry methods and its tests
	// exercise throwaway names; everything else is held to the namespace.
	if pkgPathMatches(pass.Pkg.Path(), "metrics") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 1 {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "Counter" {
				return true
			}
			recv := recvNamed(fn)
			if recv == nil || recv.Obj().Name() != "Registry" || fn.Pkg() == nil || !pkgPathMatches(fn.Pkg().Path(), "metrics") {
				return true
			}
			arg := call.Args[0]
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"metric name passed to Registry.Counter must be a string literal or constant so Snapshot/CSV columns stay stable")
				return true
			}
			name := constant.StringVal(tv.Value)
			if !metricNameRE.MatchString(name) {
				pass.Reportf(arg.Pos(),
					"metric name %q does not match %s; pick a namespaced dotted name like \"ici.retrieve.rounds\"", name, metricNameRE)
			}
			return true
		})
	}
	return nil
}
