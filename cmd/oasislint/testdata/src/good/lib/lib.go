// Package lib is linked by the fixture daemon; every exported
// identifier has a reason to be there.
package lib

import "errors"

// Doer is how the daemon reaches a worker.
type Doer interface {
	Do()
}

// Options is set by the daemon.
type Options struct {
	Level int
}

type worker struct{ err error }

// NewWorker is called by the daemon.
func NewWorker() Doer { return &worker{} }

// Do is reached only through Doer.
func (w *worker) Do() {}

// String is reached only through fmt.Stringer.
func (w *worker) String() string { return "worker" }

// Error makes worker an error; Unwrap is found by errors.Is by name.
func (w *worker) Error() string { return "worker failed" }
func (w *worker) Unwrap() error { return w.err }

var _ = errors.Is

// UsedByOtherTest has no caller but another package's test.
func UsedByOtherTest() {}

// BenchHeld has no caller but the benchmark.
func BenchHeld() {}

// Kept is paper machinery the daemon does not run.
//
//oasislint:keep §6.4 retrospective registration
func Kept() {}

// usedInternally is nobody's business.
func usedInternally() {}

func init() { usedInternally() }
