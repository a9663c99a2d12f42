package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestFixtureFindings(t *testing.T) {
	var out strings.Builder
	err := run([]string{filepath.Join("testdata", "src", "bad")}, &out)
	if err == nil {
		t.Fatal("fixture package produced no findings")
	}
	got := filepath.ToSlash(out.String())
	golden := filepath.Join("testdata", "bad.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestFixtureCoversEveryCheck cross-references the fixture's own
// annotations: every line commented "// L00x" must be reported with
// that code, and no line commented "// ok" may be reported at all.
func TestFixtureCoversEveryCheck(t *testing.T) {
	var out strings.Builder
	_ = run([]string{filepath.Join("testdata", "src", "bad")}, &out)
	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "bad", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if checked := checkAnnotations(t, out.String(), fixtures); checked < 18 {
		t.Fatalf("only %d annotated lines found in fixture", checked)
	}
}

// checkAnnotations holds the linter's output to the "// L00x" and
// "// ok" comments of the fixture files and returns how many it found.
func checkAnnotations(t *testing.T, got string, fixtures []string) (checked int) {
	t.Helper()
	for _, path := range fixtures {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := filepath.ToSlash(path) + ":"
		for i, line := range strings.Split(string(src), "\n") {
			lineNo := i + 1
			_, comment, found := strings.Cut(line, "// ")
			if !found {
				continue
			}
			switch {
			case strings.HasPrefix(comment, "L00"):
				checked++
				code := comment[:4]
				if !lineReported(got, at+strconv.Itoa(lineNo)+":", code) {
					t.Errorf("%s line %d annotated %s but not reported:\n%s", path, lineNo, code, got)
				}
			case strings.HasPrefix(comment, "ok"):
				checked++
				if strings.Contains(got, at+strconv.Itoa(lineNo)+":") {
					t.Errorf("%s line %d annotated ok but reported:\n%s", path, lineNo, got)
				}
			}
		}
	}
	return checked
}

// lintTree runs L007 alone over a fixture tree, the way run does over
// the module: the tree's cmd/oasisd is the daemon, its bench/ the
// benchmark.
func lintTree(t *testing.T, tree string) (findings, trailer string) {
	t.Helper()
	root, module, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(root, module)
	var found, listed strings.Builder
	report := func(pos token.Pos, code, msg string) {
		p := l.fset.Position(pos)
		rel, _ := filepath.Rel(filepath.Join(root, "cmd", "oasislint"), p.Filename)
		p.Filename = filepath.ToSlash(rel)
		fmt.Fprintln(&found, finding{pos: p, code: code, msg: msg})
	}
	if err := lintUnreferenced(l, tree, &listed, report); err != nil {
		t.Fatal(err)
	}
	return found.String(), listed.String()
}

func TestUnreferencedFixtureBad(t *testing.T) {
	tree := filepath.Join("testdata", "src", "bad")
	got, _ := lintTree(t, tree)
	if checked := checkAnnotations(t, got, []string{filepath.Join(tree, "lib", "lib.go")}); checked < 13 {
		t.Fatalf("only %d annotated lines found in fixture", checked)
	}
	for _, want := range []string{
		"lib.Unreferenced is linked into oasisd and nothing references it",
		"lib.OwnTestOnly is linked into oasisd and only its own package's tests reference it",
		"lib.ExternalOwnTestOnly is linked into oasisd and only its own package's tests reference it",
		"//oasislint:keep on lib.NoReason needs a reason",
		"lib.StaleKeep is referenced or satisfies an interface: its //oasislint:keep directive is stale",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestUnreferencedFixtureGood(t *testing.T) {
	got, listed := lintTree(t, filepath.Join("testdata", "src", "good"))
	if got != "" {
		t.Errorf("findings in the good fixture:\n%s", got)
	}
	// A method reached through an interface, an identifier another
	// package's test uses and an unexported one pass in silence; what
	// the benchmark alone holds and what a directive keeps are listed.
	want := "oasislint: L007 bench-held (referenced only from bench/; ROADMAP item 4 releases them): 1\n" +
		"\tlib.BenchHeld\n" +
		"oasislint: L007 kept by //oasislint:keep: 1\n" +
		"\tlib.Kept: §6.4 retrospective registration\n"
	if listed != want {
		t.Errorf("listed:\n%s\nwant:\n%s", listed, want)
	}
}

func lineReported(out, marker, code string) bool {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, marker) && strings.Contains(l, code) {
			return true
		}
	}
	return false
}

// TestRepoIsClean is the teeth of the linter: the repository's own
// packages must carry zero findings.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatalf("lint findings in the tree:\n%s", out.String())
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	dirs, err := expand([]string{"./testdata/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 0 {
		t.Errorf("testdata not skipped: %v", dirs)
	}
}

func TestFindModule(t *testing.T) {
	root, module, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if module != "oasis" {
		t.Errorf("module = %q", module)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("root %q has no go.mod", root)
	}
}
