package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const keepDirective = "//oasislint:keep"

// Where a reference to an identifier was found.
const (
	refOwnTest = 1 << iota // a _test.go file in the identifier's own directory
	refBench               // under <root>/bench
	refElsewhere
)

// subject is one exported identifier L007 answers for.
type subject struct {
	obj  types.Object
	name string // pkg.Func, pkg.Type.Method, pkg.Type.Field
	kind string
	recv *types.Named // methods of concrete types, for the interface exemption
}

// lintUnreferenced reports L007 over the tree at root: an exported
// identifier — package-level, method, struct field or interface method —
// of a package <root>/cmd/oasisd links that nothing references outside
// its own package's _test.go files. What a production binary carries
// and only its own tests call is surface nobody runs; PR 20 found such
// identifiers with a grep, this holds the line.
//
// References are counted over every package under root, tests included
// (<root>/bench too: it is a module of its own, but its path is its
// directory, so the loader resolves it like any other). A method is
// exempt when its receiver satisfies an interface that declares it —
// any interface of a linted package or of a package one imports
// (bus.Endpoint, net.Listener, error, fmt.Stringer, flag.Value, …) —
// and errors' Unwrap/Is/As are exempt by name. Identifiers only bench/
// references pass and are listed on stdout as bench-held. A doc-comment
// line `//oasislint:keep <reason>` keeps a finding, with its reason
// listed on stdout; without a reason, or on an identifier that is
// referenced after all, the directive is itself a finding.
func lintUnreferenced(l *loader, root string, stdout io.Writer, report func(token.Pos, string, string)) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	entry, err := l.loadDir(filepath.Join(root, "cmd", "oasisd"))
	if err != nil {
		return err
	}
	linked := make(map[string]bool) // by import path
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if linked[p.Path()] || !strings.HasPrefix(p.Path(), l.module+"/") {
			return
		}
		linked[p.Path()] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(entry.tpkg)
	delete(linked, entry.path) // package main exports nothing

	// Every package under root, then every test, so that l.pkgs holds
	// the whole tree before references are counted.
	dirs, err := goDirs(root)
	if err != nil {
		return err
	}
	var infos []*types.Info
	for _, dir := range dirs {
		if _, err := l.loadDir(dir); err != nil && !errors.Is(err, errNoGoFiles) {
			return err
		}
		tests, err := l.loadTests(dir)
		if err != nil {
			return err
		}
		infos = append(infos, tests...)
	}
	for _, p := range l.pkgs {
		infos = append(infos, p.info)
	}

	// Keyed by where the identifier is declared: a test variant of a
	// package declares it again as another object at the same place.
	benchDir := filepath.Join(root, "bench") + string(filepath.Separator)
	refs := make(map[token.Pos]int)
	for _, info := range infos {
		for id, obj := range info.Uses {
			if obj.Pkg() == nil || !linked[obj.Pkg().Path()] {
				continue
			}
			file := l.fset.Position(id.Pos()).Filename
			switch {
			case strings.HasSuffix(file, "_test.go") && filepath.Dir(file) == l.dirOf(obj.Pkg().Path()):
				refs[obj.Pos()] |= refOwnTest
			case strings.HasPrefix(file, benchDir):
				refs[obj.Pos()] |= refBench
			default:
				refs[obj.Pos()] |= refElsewhere
			}
		}
	}

	ifaces := interfacesByMethod(l)
	var benchHeld, kept []string
	for _, p := range l.pkgs {
		if !linked[p.path] {
			continue
		}
		docs := docComments(p)
		for _, s := range subjects(p) {
			reason, directive := keepReason(docs[s.obj])
			where := refs[s.obj.Pos()]
			if where&refElsewhere != 0 || s.recv != nil && satisfiesInterface(s.recv, s.obj.Name(), ifaces) {
				if directive {
					report(s.obj.Pos(), "L007", s.name+" is referenced or satisfies an interface: its "+keepDirective+" directive is stale, delete it")
				}
				continue
			}
			switch {
			case directive && reason == "":
				report(s.obj.Pos(), "L007", keepDirective+" on "+s.name+" needs a reason (a paper section or an open ROADMAP item)")
			case directive:
				kept = append(kept, s.name+": "+reason)
			case where&refBench != 0:
				benchHeld = append(benchHeld, s.name)
			default:
				who := "nothing references it"
				if where&refOwnTest != 0 {
					who = "only its own package's tests reference it"
				}
				report(s.obj.Pos(), "L007", fmt.Sprintf("exported %s %s is linked into oasisd and %s: delete it, unexport it, move it to export_test.go, or mark it %s <reason>",
					s.kind, s.name, who, keepDirective))
			}
		}
	}
	list := func(title string, names []string) {
		sort.Strings(names)
		fmt.Fprintf(stdout, "oasislint: L007 %s: %d\n", title, len(names))
		for _, n := range names {
			fmt.Fprintln(stdout, "\t"+n)
		}
	}
	list("bench-held (referenced only from bench/; ROADMAP item 4 releases them)", benchHeld)
	list("kept by "+keepDirective, kept)
	return nil
}

// goDirs lists the directories under root that hold Go files, skipping
// testdata and hidden trees.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && (len(dirs) == 0 || dirs[len(dirs)-1] != filepath.Dir(path)) {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs, err
}

// subjects lists the exported identifiers p answers for: package-level
// names, and the exported methods and struct fields of every
// package-level type, exported or not.
func subjects(p *pkg) []subject {
	var out []subject
	short := shortPkg(p.path)
	scope := p.tpkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			kind := "func"
			switch obj.(type) {
			case *types.TypeName:
				kind = "type"
			case *types.Var:
				kind = "var"
			case *types.Const:
				kind = "const"
			}
			out = append(out, subject{obj: obj, name: short + "." + name, kind: kind})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		prefix := short + "." + name + "."
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out = append(out, subject{obj: m, name: prefix + m.Name(), kind: "method", recv: named})
			}
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() && !f.Embedded() {
					out = append(out, subject{obj: f, name: prefix + f.Name(), kind: "field"})
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				if m := u.ExplicitMethod(i); m.Exported() {
					out = append(out, subject{obj: m, name: prefix + m.Name(), kind: "interface method"})
				}
			}
		}
	}
	return out
}

// interfacesByMethod indexes, by method name, every named method-set
// interface the loaded packages declare or import.
func interfacesByMethod(l *loader) map[string][]*types.Interface {
	out := make(map[string][]*types.Interface)
	seen := make(map[*types.Package]bool)
	add := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || !iface.IsMethodSet() {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				out[iface.Method(i).Name()] = append(out[iface.Method(i).Name()], iface)
			}
		}
	}
	for _, p := range l.pkgs {
		add(p.tpkg)
		for _, imp := range p.tpkg.Imports() {
			add(imp)
		}
	}
	out["Error"] = append(out["Error"], types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return out
}

// satisfiesInterface reports whether a method named name of recv is
// there because some interface asks for it.
func satisfiesInterface(recv *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	switch name {
	case "Unwrap", "Is", "As": // errors finds these by name
		return true
	}
	if recv.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(recv)
	for _, iface := range ifaces[name] {
		if types.Implements(recv, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// docComments maps the objects p declares to their doc comments; a
// one-spec declaration's comment is its spec's.
func docComments(p *pkg) map[types.Object]*ast.CommentGroup {
	docs := make(map[types.Object]*ast.CommentGroup)
	fields := func(list *ast.FieldList) {
		for _, f := range list.List {
			for _, id := range f.Names {
				docs[p.info.Defs[id]] = f.Doc
			}
		}
	}
	for _, file := range p.files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				docs[p.info.Defs[d.Name]] = d.Doc
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					doc := d.Doc
					switch s := spec.(type) {
					case *ast.ValueSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						for _, id := range s.Names {
							docs[p.info.Defs[id]] = doc
						}
					case *ast.TypeSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						docs[p.info.Defs[s.Name]] = doc
						switch t := s.Type.(type) {
						case *ast.StructType:
							fields(t.Fields)
						case *ast.InterfaceType:
							fields(t.Methods)
						}
					}
				}
			}
		}
	}
	return docs
}

// keepReason finds a keep directive in a doc comment and returns its
// reason.
func keepReason(doc *ast.CommentGroup) (reason string, found bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, keepDirective); ok && (rest == "" || rest[0] == ' ') {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}
