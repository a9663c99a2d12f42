package credrec

import "expvar"

// Recorder is the credential-record store surface the layers above
// are written against — allocation, state transitions, flags, GC, bulk
// source transitions, the read paths and observation. The *Store (in
// memory, or journaled once StartJournal has run) and the
// *ShardedStore over any such stores satisfy it; the oasis service
// engine and the group manager operate through it, so a deployment
// chooses persistence and partitioning by what it hands to
// oasis.Options.Store, with no change anywhere above.
type Recorder interface {
	// Allocation (§4.5–4.7).
	NewFact(s State) Ref
	NewExternal(source string, s State) Ref
	NewDerived(op Op, parents ...Parent) Ref

	// State transitions and revocation (§4.6, §4.8).
	SetState(ref Ref, s State) error
	Invalidate(ref Ref) error

	// An authority's word about the records mirrored here (§4.9–4.10).
	Apply(changes []Change) error

	// Record flags (figure 4.7).
	MarkDirectUse(ref Ref) error
	MarkNotify(ref Ref) error
	MarkAutoRevoke(ref Ref) error

	// Bulk transitions for failure suspicion (§4.10, §6.8.4).
	MarkSourceUnknown(source string) int
	MarkSourceFailsafe(source string) int

	// Garbage collection (§4.8).
	Sweep() int

	// Read paths.
	Lookup(ref Ref) (State, error)
	Valid(ref Ref) bool
	Resolve(ref Ref) (State, bool, error)
	Externals(visit func(ref Ref, name string, final bool))

	// WaitsForDisk reports whether a mutation can wait for stable
	// storage before it returns: a journal under SyncAlways.
	WaitsForDisk() bool

	// Observation and introspection.
	OnChange(f ChangeFunc)
	Image() []byte
	Live() int
	Vars() expvar.Var
}

// Interface conformance: one store and its partitioned composition.
var (
	_ Recorder = (*Store)(nil)
	_ Recorder = (*ShardedStore)(nil)
)
