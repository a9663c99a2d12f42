// oasislint enforces this repository's concurrency discipline with the
// standard library's go/ast and go/types only — no external analysis
// framework. It walks the packages named on the command line (defaults:
// ./internal/... and ./cmd/...) and reports:
//
//	L002  a sync/atomic function call — use a typed atomic, which cannot
//	      also be accessed plainly
//	L003  a channel send, or a bus Flush/EndBatch/StartBatch call, made
//	      while a lock is held (all locks in this repo are leaves)
//	L004  time.Now and friends outside internal/clock — virtual time
//	      must flow through clock.Clock so tests stay deterministic
//	L005  an error from the persistence surface (internal/credrec/storage
//	      Write/Sync/Truncate/Snapshot/...), a bus send path, or an HTTP
//	      ResponseWriter.Write dropped on the floor; `_ =` marks an
//	      accepted discard
//	L007  an exported identifier of a package cmd/oasisd links that
//	      nothing references outside its own package's tests — run when
//	      cmd/oasisd is among the packages named, counted over the whole
//	      module and bench/, tests included (unreferenced.go has the
//	      exemptions and the //oasislint:keep directive)
//
// L001, copied locks, is retired: it re-implemented go vet's copylocks,
// which `make ci` runs over the same packages. L002–L005 do not analyze
// test files. Any finding makes the exit status non-zero, so `make lint`
// gates CI.
package main

import (
	"bytes"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// finding is one linter diagnostic.
type finding struct {
	pos  token.Position
	code string
	msg  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.pos.Filename, f.pos.Line, f.pos.Column, f.code, f.msg)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		args = []string{"./internal/...", "./cmd/..."}
	}
	dirs, err := expand(args)
	if err != nil {
		return err
	}
	root, module, err := findModule(".")
	if err != nil {
		return err
	}
	l := newLoader(root, module)

	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	var findings []finding
	report := func(pos token.Pos, code, msg string) {
		p := l.fset.Position(pos)
		if rel, err := filepath.Rel(wd, p.Filename); err == nil {
			p.Filename = rel // the loader works on absolute paths
		}
		findings = append(findings, finding{pos: p, code: code, msg: msg})
	}
	var trailer bytes.Buffer
	for _, dir := range dirs {
		p, err := l.loadDir(dir)
		if err != nil {
			return fmt.Errorf("oasislint: %w", err)
		}
		lintForbiddenCalls(p, module, report)
		lintLockAcrossSend(p, report)
		lintDroppedErrors(p, module, report)
		if p.dir == filepath.Join(root, "cmd", "oasisd") {
			if err := lintUnreferenced(l, root, &trailer, report); err != nil {
				return fmt.Errorf("oasislint: %w", err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.code < b.code
	})
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	_, _ = trailer.WriteTo(stdout)
	if len(findings) > 0 {
		return fmt.Errorf("oasislint: %d finding(s)", len(findings))
	}
	return nil
}
