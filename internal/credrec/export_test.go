package credrec

import (
	"fmt"
	"io"
	"strings"
)

// Accessors and conveniences only this package's tests use.

// AutoRevoke reports the auto-revoke flag.
func (st *Store) AutoRevoke(ref Ref) bool {
	sh := st.shardFor(ref.Index)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, err := sh.get(ref)
	return err == nil && r.autoRev
}

// External returns the source service of an external record ("" for
// local records).
func (st *Store) External(ref Ref) string {
	sh := st.shardFor(ref.Index)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, err := sh.get(ref)
	if err != nil {
		return ""
	}
	return r.external
}

// Stats reports cumulative creations and deletions.
func (st *Store) Stats() (created, deleted uint64) {
	return st.created.Load(), st.deleted.Load()
}

// Interesting reports the number of live interesting credentials (for
// tests and benchmarks: this stays far below members × groups).
func (g *Groups) Interesting() int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		n += len(sh.interesting)
		sh.mu.RUnlock()
	}
	return n
}

// Replay rebuilds a store by re-executing a binary journal. A torn
// final record — the footprint of a crash mid-append — is dropped
// silently; corruption anywhere else fails.
func Replay(r io.Reader) (*Store, error) {
	st := NewStore()
	if _, _, err := ReplayInto(st, r, false); err != nil {
		return nil, err
	}
	return st, nil
}

// NewJournaledStore creates an empty store journaling to w under the
// default SyncBatched policy.
func NewJournaledStore(w io.Writer) *Store {
	st := NewStore()
	st.StartJournal(writerSink{w}, JournalOptions{})
	return st
}

// Owner returns the name of the member owning key.
func (r *Ring) Owner(key uint64) string { return r.members[r.OwnerIndex(key)] }

// ReplayInto is ReplayIntoOffset without the offset.
func ReplayInto(st *Store, r io.Reader, strict bool) (applied int, torn bool, err error) {
	applied, _, torn, err = ReplayIntoOffset(st, r, strict)
	return applied, torn, err
}

// externalsNamed lists the live external records created under name.
func externalsNamed(r Recorder, name string) (refs []Ref) {
	r.Externals(func(ref Ref, n string, _ bool) {
		if n == name {
			refs = append(refs, ref)
		}
	})
	return refs
}

// bridgeName is the name of a bridge mirroring parent, which shard
// owner holds.
func bridgeName(owner string, parent Ref) string {
	return SurrogateName(bridgePrefix+owner, parent)
}

// parseBridgeName inverts bridgeName, accepting only what it produces.
func parseBridgeName(name string) (owner string, parent Ref, err error) {
	if !strings.HasPrefix(name, bridgePrefix) {
		return "", Ref{}, fmt.Errorf("want %s<owner>#<hex ref>", bridgePrefix)
	}
	owner, parent, err = ParseSurrogateName(name)
	return strings.TrimPrefix(owner, bridgePrefix), parent, err
}
