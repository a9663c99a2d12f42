// Package lib is linked by the fixture daemon and exports more than
// anything outside its own tests uses.
package lib

// Used is called by the daemon.
func Used() { helper() }

func helper() {} // ok: unexported identifiers are not L007's business

func Unreferenced() {} // L007: nothing references it

func OwnTestOnly() {} // L007: only lib_test.go calls it

func ExternalOwnTestOnly() {} // L007: package lib_test lives in the same directory

const DeadConst = 1 // L007

var DeadVar int // L007

type DeadType struct{} // L007

// Options is referenced by the daemon; one of its fields is not.
type Options struct {
	Dead int // L007: never set, never read
}

type worker struct{}

func (worker) Orphan() {} // L007: an exported method of an unexported type counts too

// Doer declares a method nothing calls and nothing implements.
type Doer interface {
	Do() // L007: an interface method is an exported identifier too
}

var _ Doer // ok: the type itself is referenced

// NoReason is kept without saying why.
//
//oasislint:keep
func NoReason() {} // L007: the directive needs a reason

// StaleKeep is referenced by the daemon's own package after all.
//
//oasislint:keep §9.9 no longer true
func StaleKeep() {} // L007: a directive on a referenced identifier is stale

func init() { StaleKeep() }
