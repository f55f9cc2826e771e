package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, type-checked package ready for analysis.
// Test files (*_test.go) are excluded: the analyzers police production
// invariants, and tests legitimately use wall clocks, throwaway metric
// names, and shared buffers.
type Package struct {
	// Path is the import path ("icistrategy/internal/core", or the
	// fixture-relative path under a fixture loader).
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// The stdlib is type-checked from source exactly once per process and
// shared by every loader (module and fixture loaders alike), so a test
// binary running many fixture loads pays the fmt/sync/time cost once.
var (
	stdFsetOnce sync.Once
	stdFset     *token.FileSet
	stdImp      types.Importer
	stdMu       sync.Mutex
)

func stdImporter() (*token.FileSet, types.Importer) {
	stdFsetOnce.Do(func() {
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "source", nil)
	})
	return stdFset, stdImp
}

// Loader parses and type-checks packages, resolving intra-repo (or
// intra-fixture) imports from disk and everything else from the stdlib
// source importer. It works fully offline.
type Loader struct {
	Fset *token.FileSet
	// resolve maps an import path to a directory, or reports false to fall
	// back to the stdlib importer.
	resolve func(importPath string) (string, bool)
	// pathOf maps a directory back to its import path.
	pathOf  func(dir string) (string, error)
	root    string
	byPath  map[string]*Package
	loading map[string]bool
}

// NewModuleLoader returns a loader rooted at the module directory
// (containing go.mod). Imports under the module path resolve to
// subdirectories; all other imports go to the stdlib source importer.
func NewModuleLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modData, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("loader: %w (icilint must run from inside the module)", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(modData), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("loader: no module line in %s/go.mod", root)
	}
	fset, _ := stdImporter()
	l := &Loader{Fset: fset, root: root, byPath: map[string]*Package{}, loading: map[string]bool{}}
	l.resolve = func(importPath string) (string, bool) {
		if importPath == modPath {
			return root, true
		}
		if rest, ok := strings.CutPrefix(importPath, modPath+"/"); ok {
			return filepath.Join(root, filepath.FromSlash(rest)), true
		}
		return "", false
	}
	l.pathOf = func(dir string) (string, error) {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return "", err
		}
		if rel == "." {
			return modPath, nil
		}
		if strings.HasPrefix(rel, "..") {
			return "", fmt.Errorf("loader: %s is outside module root %s", dir, root)
		}
		return modPath + "/" + filepath.ToSlash(rel), nil
	}
	return l, nil
}

// NewFixtureLoader returns a loader rooted at an analysistest-style
// testdata "src" directory: import path P resolves to srcRoot/P. Used by
// the golden-fixture harness.
func NewFixtureLoader(srcRoot string) (*Loader, error) {
	srcRoot, err := filepath.Abs(srcRoot)
	if err != nil {
		return nil, err
	}
	fset, _ := stdImporter()
	l := &Loader{Fset: fset, root: srcRoot, byPath: map[string]*Package{}, loading: map[string]bool{}}
	l.resolve = func(importPath string) (string, bool) {
		dir := filepath.Join(srcRoot, filepath.FromSlash(importPath))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	}
	l.pathOf = func(dir string) (string, error) {
		rel, err := filepath.Rel(srcRoot, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return "", fmt.Errorf("loader: %s is outside fixture root %s", dir, srcRoot)
		}
		return filepath.ToSlash(rel), nil
	}
	return l, nil
}

// Import implements types.Importer: repo-internal paths load (and cache)
// from disk, everything else defers to the shared stdlib source importer.
func (l *Loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.resolve(importPath); ok {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	_, imp := stdImporter()
	stdMu.Lock()
	defer stdMu.Unlock()
	return imp.Import(importPath)
}

// LoadDir parses and type-checks the package in dir (cached).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	importPath, err := l.pathOf(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.byPath[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("loader: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	// build.ImportDir applies the build-tag and GOOS/GOARCH file filtering
	// of the host context (so e.g. the amd64 asm stubs and the portable
	// fallback never collide) and excludes *_test.go.
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", importPath, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	sort.Strings(bp.GoFiles)
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.byPath[importPath] = pkg
	return pkg, nil
}

// LoadPath loads the package with the given import path (which must be
// resolvable by this loader, i.e. inside the module or fixture root).
func (l *Loader) LoadPath(importPath string) (*Package, error) {
	dir, ok := l.resolve(importPath)
	if !ok {
		return nil, fmt.Errorf("loader: %q is not inside this loader's root", importPath)
	}
	return l.LoadDir(dir)
}

// Load expands the given package patterns and loads each match. Patterns
// are directory-based, relative to the loader root (or absolute):
// "./..."-style wildcards walk subdirectories, anything else names one
// directory. The walk skips testdata, hidden directories, and directories
// with no buildable non-test Go files; explicitly named directories (even
// under testdata — the CI negative gate depends on this) are loaded
// unconditionally.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	explicit := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		base, wild := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" || base == "." {
			base = l.root
		} else if !filepath.IsAbs(base) {
			base = filepath.Join(l.root, filepath.FromSlash(base))
		}
		if !wild {
			add(base)
			explicit[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("loader: walking %s: %w", pat, err)
		}
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			// Wildcard walks tolerate directories whose every Go file is
			// excluded by build tags; explicitly named directories must load.
			var ng *build.NoGoError
			if errors.As(err, &ng) && !explicit[dir] {
				continue
			}
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
