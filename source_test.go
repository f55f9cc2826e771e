package icistrategy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseDir parses the non-test Go files of one package directory.
func parseDir(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[p] = f
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

// importName is the name f refers to the package at path by, or "" when f
// does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// callee splits a call q.Name(…) into q and Name, and a call Name(…) into
// "" and Name; for anything else name is "".
func callee(n ast.Node) (q, name string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return "", fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name, fun.Sel.Name
		}
	}
	return "", ""
}

// A seeded simulation is byte-identical run to run: its clock is the
// simulator's and its randomness is seeded by the run. The packages that
// run under that clock read no wall clock, draw from no process-global
// source, and let the scheduler pick between no two ready channels.
func TestSimulationCodeReadsNoWallClock(t *testing.T) {
	wallClock := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true,
		"After": true, "AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true}
	for _, pkg := range []string{"core", "simnet", "consensus", "cluster", "gossip", "trace", "experiments", "runner", "workload"} {
		for path, f := range parseDir(t, filepath.Join("internal", pkg)) {
			if importName(f, "math/rand") != "" || importName(f, "math/rand/v2") != "" {
				t.Errorf("%s imports math/rand: draw from blockcrypto/rng seeded by the run", path)
			}
			timePkg := importName(f, "time")
			ast.Inspect(f, func(n ast.Node) bool {
				if q, name := callee(n); timePkg != "" && q == timePkg && wallClock[name] {
					t.Errorf("%s: time.%s reads the wall clock: use the simulator's clock", path, name)
				}
				if sel, ok := n.(*ast.SelectStmt); ok {
					comms := 0
					for _, c := range sel.Body.List {
						if c.(*ast.CommClause).Comm != nil {
							comms++
						}
					}
					if comms >= 2 {
						t.Errorf("%s: select over %d channels lets the scheduler pick", path, comms)
					}
				}
				return true
			})
		}
	}
}

// Which members hold a chunk depends on the membership epoch its block was
// written under, so the packages that place chunks name that epoch:
// m.At(h).Owners(…), m.Current().Owners(…). The free rendezvous functions
// over a bare member slice are called only by each other and by methods of
// the epoch types and of the Accountant, which models a static network.
// Retrieval once ranked a block's owners over the live roster and missed
// every replica after churn.
func TestPlacementNamesItsEpoch(t *testing.T) {
	free := map[string]bool{"Owners": true, "IsOwner": true, "RankedMembers": true}
	mayPlace := func(fd *ast.FuncDecl) bool {
		if fd.Recv == nil {
			return free[fd.Name.Name]
		}
		typ := fd.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		id, ok := typ.(*ast.Ident)
		return ok && (id.Name == "Epoch" || id.Name == "EpochMap" || id.Name == "Accountant")
	}
	for _, pkg := range []string{"core", "netx", "gateway"} {
		for path, f := range parseDir(t, filepath.Join("internal", pkg)) {
			// In core the free functions are called bare, elsewhere through
			// the file's name for core.
			qual := ""
			if pkg != "core" {
				if qual = importName(f, "icistrategy/internal/core"); qual == "" {
					continue
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || mayPlace(fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					q, name := callee(n)
					if q == qual && free[name] {
						t.Errorf("%s: %s calls %s over a bare member slice: place through the block's epoch", path, fd.Name.Name, name)
					}
					return true
				})
			}
		}
	}
}
