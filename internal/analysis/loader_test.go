package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icistrategy/internal/analysis"
)

// writeModule materializes a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for rel, content := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// A type error in a dependency pulled in through the import graph must
// surface as a positioned error from Load, not a panic and not a bare
// "import failed": the file and line of the broken code is what the user
// needs to act on.
func TestLoaderTypeErrorMidModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"dep/dep.go": "package dep\n\nfunc Broken() int {\n\treturn undefinedName\n}\n",
		"use/use.go": "package use\n\nimport \"tmpmod/dep\"\n\nfunc Use() int { return dep.Broken() }\n",
	})
	loader, err := analysis.NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.Load("./use")
	if err == nil {
		t.Fatal("loading a package with a broken dependency must fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "dep.go:4:") {
		t.Errorf("error does not carry the broken file:line: %v", err)
	}
	if !strings.Contains(msg, "type-checking") {
		t.Errorf("error does not say what failed: %v", err)
	}
}

// A syntax error must likewise come back as a positioned loader error.
func TestLoaderParseErrorIsPositioned(t *testing.T) {
	root := writeModule(t, map[string]string{
		"bad/bad.go": "package bad\n\nfunc Unclosed() {\n",
	})
	loader, err := analysis.NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = loader.Load("./bad"); err == nil {
		t.Fatal("loading a package with a syntax error must fail")
	} else if !strings.Contains(err.Error(), "bad.go:") {
		t.Errorf("error does not carry the broken file: %v", err)
	}
}
