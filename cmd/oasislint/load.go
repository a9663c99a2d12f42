package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pkg is one type-checked package under lint.
type pkg struct {
	dir   string
	path  string
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
}

// loader parses and type-checks packages with the standard library
// only: module-local imports are resolved against the repository,
// everything else is delegated to the source importer. Packages are
// checked once and memoized.
type loader struct {
	fset    *token.FileSet
	root    string // module root directory
	module  string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*pkg // by absolute directory
	loading map[string]bool
}

func newLoader(root, module string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    root,
		module:  module,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*pkg),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer for the type-checker's benefit.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.load(l.dirOf(path), path)
		if err != nil {
			return nil, err
		}
		return p.tpkg, nil
	}
	return l.std.Import(path)
}

// dirOf is the directory of a module-local import path.
func (l *loader) dirOf(path string) string {
	return filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/"))
}

// errNoGoFiles is load's error for a directory holding only tests.
var errNoGoFiles = errors.New("no Go files")

// load parses and type-checks the package in dir, attributing it the
// given import path.
func (l *loader) load(dir, ipath string) (*pkg, error) {
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("import cycle through %s", ipath)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%w in %s", errNoGoFiles, dir)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(ipath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &pkg{dir: dir, path: ipath, files: files, tpkg: tpkg, info: info}
	l.pkgs[dir] = p
	return p, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// parseDir parses the directory's _test.go files (tests) or its other
// Go files (!tests).
func (l *loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// variantImporter is what an external test package imports through:
// the package under test resolves to its test variant (checked together
// with its in-package _test.go files, so export_test.go is visible), a
// package that itself imports the package under test is checked again
// against that variant — as the go tool rebuilds it — and everything
// else comes from the loader.
type variantImporter struct {
	l       *loader
	path    string
	variant *types.Package
	redone  map[string]*types.Package
}

func (v *variantImporter) Import(path string) (*types.Package, error) {
	if path == v.path {
		return v.variant, nil
	}
	if tp, ok := v.redone[path]; ok {
		return tp, nil
	}
	tp, err := v.l.Import(path)
	if err != nil || !importsPath(tp, v.path, make(map[*types.Package]bool)) {
		return tp, err
	}
	tp, err = (&types.Config{Importer: v}).Check(path, v.l.fset, v.l.pkgs[v.l.dirOf(path)].files, nil)
	v.redone[path] = tp
	return tp, err
}

// importsPath reports whether p imports target, directly or not.
func importsPath(p *types.Package, target string, seen map[*types.Package]bool) bool {
	if seen[p] {
		return false
	}
	seen[p] = true
	for _, imp := range p.Imports() {
		if imp.Path() == target || importsPath(imp, target, seen) {
			return true
		}
	}
	return false
}

// loadTests type-checks the _test.go files of dir — the in-package ones
// together with the package's own files, the external (package x_test)
// ones against that variant — and returns what they reference. A
// variant is a second types.Package over the same syntax trees, so its
// objects are told from the memoized package's by nothing but identity:
// L007 keys references by declaration position for that reason.
func (l *loader) loadTests(dir string) ([]*types.Info, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	tests, err := l.parseDir(dir, true)
	if err != nil || len(tests) == 0 {
		return nil, err
	}
	ipath := l.importPath(dir)
	var inPkg, external []*ast.File
	for _, f := range tests {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	var infos []*types.Info
	imp := types.Importer(l)
	if len(inPkg) > 0 {
		var own []*ast.File
		if p := l.pkgs[dir]; p != nil {
			own = p.files
		}
		info := newInfo()
		variant, err := (&types.Config{Importer: l}).Check(ipath, l.fset, append(own[:len(own):len(own)], inPkg...), info)
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
		imp = &variantImporter{l: l, path: ipath, variant: variant, redone: make(map[string]*types.Package)}
	}
	if len(external) > 0 {
		info := newInfo()
		if _, err := (&types.Config{Importer: imp}).Check(ipath+"_test", l.fset, external, info); err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// loadDir loads the package in dir, deriving its import path from the
// module root when the directory lies under it.
func (l *loader) loadDir(dir string) (*pkg, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(abs, l.importPath(abs))
}

// importPath derives an absolute directory's import path from the
// module root.
func (l *loader) importPath(abs string) string {
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// findModule walks upward from dir to the enclosing go.mod, returning
// the module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod above %s", dir)
		}
		abs = parent
	}
}

// expand resolves ./dir/... patterns into the list of package
// directories beneath them, skipping testdata trees.
func expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, rec := strings.CutSuffix(pat, "/...")
		if !rec {
			add(pat)
			continue
		}
		err := filepath.WalkDir(filepath.Clean(base), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != base {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				add(filepath.Dir(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
