package fault

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
)

// Crash-consistency suite for the persistence engine. The Memory
// backend models durability exactly — a synced watermark per segment,
// advanced only by fsync — so a "crash" is a pure function: Crash(extra)
// yields the bytes a power loss would leave. Each scenario executes a
// deterministic operation script, kills the engine at every possible
// point, recovers, and asserts:
//
//   - safety: the recovered store equals the fault-free store after
//     some durable prefix of the script (exactly the completed prefix
//     under SyncAlways), so no revocation a client saw acknowledged is
//     forgotten;
//   - convergence: replaying the remainder of the script on the
//     recovered store ends in the byte-identical image of a run that
//     never crashed — the same obligation the partition suite
//     (chaos_test.go) checks for network faults, here for storage
//     faults.

// pstep is one scripted operation. refs accumulates every minted
// reference; determinism of the allocator guarantees the same script
// mints the same refs in every store.
type pstep struct {
	name string
	run  func(r credrec.Recorder, refs *[]credrec.Ref)
}

func mint(ref credrec.Ref, refs *[]credrec.Ref) { *refs = append(*refs, ref) }

func at(refs *[]credrec.Ref, i int) credrec.Ref { return (*refs)[i%len(*refs)] }

// freeze makes a record final at the state it resolves to.
func freeze(r credrec.Recorder, ref credrec.Ref) {
	st, _, _ := r.Resolve(ref)
	_ = r.Apply([]credrec.Change{{Ref: ref, State: st, Permanent: true}})
}

// persistScript is a fixed workload touching every journaled operation:
// allocation, cascade revocation, permanence, sweeps and source-wide
// transitions. Every step journals exactly one record — the batched
// kill-point test depends on that, because a group-commit batch can end
// between any two records and recovery must land on a step boundary.
func persistScript() []pstep {
	var s []pstep
	add := func(name string, run func(r credrec.Recorder, refs *[]credrec.Ref)) {
		s = append(s, pstep{name, run})
	}
	add("ext-login", func(r credrec.Recorder, refs *[]credrec.Ref) { mint(r.NewExternal("login", credrec.True), refs) })
	add("fact-0", func(r credrec.Recorder, refs *[]credrec.Ref) { mint(r.NewFact(credrec.True), refs) })
	for i := 0; i < 6; i++ {
		i := i
		add(fmt.Sprintf("derive-%d", i), func(r credrec.Recorder, refs *[]credrec.Ref) {
			mint(r.NewDerived(credrec.OpAnd, credrec.Of(at(refs, i)), credrec.Of(at(refs, i+1))), refs)
		})
		add(fmt.Sprintf("use-%d", i), func(r credrec.Recorder, refs *[]credrec.Ref) {
			_ = r.MarkDirectUse(at(refs, len(*refs)-1))
		})
	}
	add("revoke-2", func(r credrec.Recorder, refs *[]credrec.Ref) { _ = r.Invalidate(at(refs, 2)) })
	add("flip-3-false", func(r credrec.Recorder, refs *[]credrec.Ref) { _ = r.SetState(at(refs, 3), credrec.False) })
	add("flip-3-true", func(r credrec.Recorder, refs *[]credrec.Ref) { _ = r.SetState(at(refs, 3), credrec.True) })
	add("permanent-4", func(r credrec.Recorder, refs *[]credrec.Ref) { freeze(r, at(refs, 4)) })
	add("sweep-1", func(r credrec.Recorder, refs *[]credrec.Ref) { r.Sweep() })
	for i := 0; i < 4; i++ {
		i := i
		add(fmt.Sprintf("fact-reuse-%d", i), func(r credrec.Recorder, refs *[]credrec.Ref) {
			mint(r.NewFact(credrec.True), refs)
		})
	}
	add("suspect-login", func(r credrec.Recorder, refs *[]credrec.Ref) { r.MarkSourceUnknown("login") })
	add("failsafe-login", func(r credrec.Recorder, refs *[]credrec.Ref) { r.MarkSourceFailsafe("login") })
	add("resync-login", func(r credrec.Recorder, refs *[]credrec.Ref) {
		var login []credrec.Ref
		r.Externals(func(ref credrec.Ref, name string, _ bool) {
			if name == "login" {
				login = append(login, ref)
			}
		})
		for _, ref := range login {
			_ = r.SetState(ref, credrec.True)
		}
	})
	add("revoke-5", func(r credrec.Recorder, refs *[]credrec.Ref) { _ = r.Invalidate(at(refs, 5)) })
	add("sweep-2", func(r credrec.Recorder, refs *[]credrec.Ref) { r.Sweep() })
	add("fact-final", func(r credrec.Recorder, refs *[]credrec.Ref) { mint(r.NewFact(credrec.Unknown), refs) })
	return s
}

// prefixImages runs the script on a plain in-memory store, capturing
// the image after every step: prefixImages[k] is the fault-free state
// once steps < k have executed.
func prefixImages(script []pstep) [][]byte {
	st := credrec.NewStore()
	var refs []credrec.Ref
	images := make([][]byte, 0, len(script)+1)
	images = append(images, st.Image())
	for _, step := range script {
		step.run(st, &refs)
		images = append(images, st.Image())
	}
	return images
}

// runPrefix executes steps < k on r, returning the accumulated refs.
func runPrefix(script []pstep, r credrec.Recorder, k int) []credrec.Ref {
	var refs []credrec.Ref
	for _, step := range script[:k] {
		step.run(r, &refs)
	}
	return refs
}

// TestKillPointsSyncAlways crashes after every step under SyncAlways.
// The durable prefix is exactly the completed steps, so recovery must
// land on prefix image k — and finishing the script must converge to
// the fault-free final image.
func TestKillPointsSyncAlways(t *testing.T) {
	script := persistScript()
	images := prefixImages(script)
	// Snapshot+compaction at this step exercises snapshot-plus-tail
	// recovery for every later kill point.
	const snapshotAt = 9

	for k := 0; k <= len(script); k++ {
		be := storage.NewMemory()
		eng, err := storage.Open(be, storage.Options{Sync: credrec.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		refs := runPrefix(script, eng.Store(), min(k, snapshotAt))
		if k > snapshotAt {
			if err := eng.Snapshot(); err != nil {
				t.Fatal(err)
			}
			for _, step := range script[snapshotAt:k] {
				step.run(eng.Store(), &refs)
			}
		}

		// Power loss. The engine object is abandoned, as a crash would.
		crashed := be.Crash(0)
		eng2, err := storage.Open(crashed, storage.Options{})
		if err != nil {
			t.Fatalf("kill after step %d: recovery failed: %v", k, err)
		}
		if got := eng2.Store().Image(); !bytes.Equal(got, images[k]) {
			t.Fatalf("kill after step %d (%q): recovered image is not the durable prefix\n-- recovered --\n%s\n-- want --\n%s",
				k, stepName(script, k), got, images[k])
		}
		// Convergence: finish the script on the recovered store. The ref
		// table is rebuilt on a scratch store — allocation determinism
		// makes it identical to the one the crashed run held.
		cont := runPrefix(script, credrec.NewStore(), k)
		for _, step := range script[k:] {
			step.run(eng2.Store(), &cont)
		}
		if got := eng2.Store().Image(); !bytes.Equal(got, images[len(script)]) {
			t.Fatalf("kill after step %d: post-recovery run diverged from fault-free image", k)
		}
		if err := eng2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func stepName(script []pstep, k int) string {
	if k == 0 {
		return "start"
	}
	return script[k-1].name
}

// TestKillPointsSyncBatched crashes under the batched policy, where the
// durable prefix is whatever the group committer had fsynced. Recovery
// must land on SOME prefix image — never a state the fault-free run
// cannot reach (no reordering, no partial application) — and converge
// once the lost tail is re-run.
func TestKillPointsSyncBatched(t *testing.T) {
	script := persistScript()
	images := prefixImages(script)
	for k := 0; k <= len(script); k++ {
		be := storage.NewMemory()
		eng, err := storage.Open(be, storage.Options{Sync: credrec.SyncBatched})
		if err != nil {
			t.Fatal(err)
		}
		runPrefix(script, eng.Store(), k)
		crashed := be.Crash(0)
		eng2, err := storage.Open(crashed, storage.Options{})
		if err != nil {
			t.Fatalf("kill after step %d: recovery failed: %v", k, err)
		}
		got := eng2.Store().Image()
		prefix := -1
		for j := 0; j <= k; j++ {
			if bytes.Equal(got, images[j]) {
				prefix = j
				break
			}
		}
		if prefix < 0 {
			t.Fatalf("kill after step %d: recovered image matches no durable prefix", k)
		}
		// Converge from the surviving prefix.
		cont := runPrefix(script, credrec.NewStore(), prefix)
		for _, step := range script[prefix:] {
			step.run(eng2.Store(), &cont)
		}
		if !bytes.Equal(eng2.Store().Image(), images[len(script)]) {
			t.Fatalf("kill after step %d: convergence from prefix %d failed", k, prefix)
		}
		if err := eng2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillPointTornTail crashes with partial unsynced bytes surviving,
// producing a torn final record at every byte boundary. Recovery must
// drop the tear, land on a durable prefix, and stay deterministic.
func TestKillPointTornTail(t *testing.T) {
	script := persistScript()
	images := prefixImages(script)
	const k = 12 // kill point; unsynced tail torn at every length
	for extra := 0; extra < 64; extra++ {
		be := storage.NewMemory()
		eng, err := storage.Open(be, storage.Options{Sync: credrec.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		runPrefix(script, eng.Store(), k)
		if err := eng.Store().Sync(); err != nil { // drain the queue; fsync never happens under SyncNone
			t.Fatal(err)
		}
		crashed := be.Crash(extra)
		eng2, err := storage.Open(crashed, storage.Options{})
		if err != nil {
			t.Fatalf("extra=%d: recovery failed: %v", extra, err)
		}
		got := eng2.Store().Image()
		ok := false
		for j := 0; j <= k; j++ {
			if bytes.Equal(got, images[j]) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("extra=%d: torn recovery matches no durable prefix", extra)
		}
		// Determinism: the same crash recovers to the same image twice.
		eng3, err := storage.Open(be.Crash(extra), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(eng3.Store().Image(), got) {
			t.Fatalf("extra=%d: identical crashes recovered differently", extra)
		}
		eng2.Close()
		eng3.Close()
	}
}

// TestKillPointMidSnapshot crashes during snapshot installation: the
// install is atomic, so recovery sees the old snapshot (or none) plus
// the intact journal — nothing is lost, nothing is double-applied.
func TestKillPointMidSnapshot(t *testing.T) {
	script := persistScript()
	images := prefixImages(script)
	const k = 14

	be := storage.NewMemory()
	eng, err := storage.Open(be, storage.Options{Sync: credrec.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	refs := runPrefix(script, eng.Store(), k)
	be.FailNextSnapshot()
	if err := eng.Snapshot(); err == nil {
		t.Fatal("injected snapshot failure not surfaced")
	}
	// The store keeps journaling after the failed install.
	for _, step := range script[k:] {
		step.run(eng.Store(), &refs)
	}

	eng2, err := storage.Open(be.Crash(0), storage.Options{})
	if err != nil {
		t.Fatalf("recovery after failed snapshot install: %v", err)
	}
	defer eng2.Close()
	if snap := eng2.Vars().Get("snapshot").String(); snap != "0" {
		t.Fatalf("recovered from snapshot %s that never installed", snap)
	}
	if !bytes.Equal(eng2.Store().Image(), images[len(script)]) {
		t.Fatal("recovery after failed snapshot install lost operations")
	}
}

// TestRevocationsStayRevoked is the paper's §4.10 safety obligation
// against storage faults: once a revocation has been acknowledged under
// SyncAlways, EVERY subsequent crash/recovery — at any kill point, with
// any torn tail — yields a store in which the credential is still
// invalid.
func TestRevocationsStayRevoked(t *testing.T) {
	for extra := 0; extra < 32; extra++ {
		be := storage.NewMemory()
		eng, err := storage.Open(be, storage.Options{Sync: credrec.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		ls := eng.Store()
		root := ls.NewFact(credrec.True)
		member := ls.NewDerived(credrec.OpAnd, credrec.Of(root))
		if err := ls.MarkDirectUse(member); err != nil {
			t.Fatal(err)
		}
		if err := ls.Invalidate(root); err != nil {
			t.Fatal(err) // acknowledged: durable by SyncAlways
		}
		// Unsynced noise after the acknowledgement, then a crash that
		// preserves an arbitrary slice of it.
		for i := 0; i < 8; i++ {
			ls.NewFact(credrec.True)
		}
		eng2, err := storage.Open(be.Crash(extra), storage.Options{})
		if err != nil {
			t.Fatalf("extra=%d: %v", extra, err)
		}
		if eng2.Store().Valid(member) {
			t.Fatalf("extra=%d: acknowledged revocation forgotten after crash", extra)
		}
		if s, _, _ := eng2.Store().Resolve(member); s != credrec.False {
			t.Fatalf("extra=%d: revoked member resolves %v", extra, s)
		}
		eng2.Close()
	}
}

// ---- the same obligations over the sharded-and-journaled shape ----
//
// Four shards, each on a storage.Engine and a Memory backend of its
// own, under one credrec.ShardedStore. The script's derivations chain
// across shards (bridges), so one step can journal records on several
// shards and a crash can keep them on one and lose them on another.

var chaosShardNames = []string{"s00", "s01", "s02", "s03"}

// shardedScript is persistScript followed by steps that push final
// values other than False across shards: four facts, four disjunctions
// over neighbouring pairs, then two facts frozen true, one flipped, one
// revoked.
func shardedScript() []pstep {
	s := persistScript()
	const base = 13 // references persistScript mints
	add := func(name string, run func(r credrec.Recorder, refs *[]credrec.Ref)) {
		s = append(s, pstep{name, run})
	}
	for i := 0; i < 4; i++ {
		i := i
		add(fmt.Sprintf("pair-fact-%d", i), func(r credrec.Recorder, refs *[]credrec.Ref) {
			if len(*refs) != base+i {
				panic(fmt.Sprintf("shardedScript: %d references before pair-fact-%d, want %d", len(*refs), i, base+i))
			}
			mint(r.NewFact(credrec.True), refs)
		})
	}
	for i := 0; i < 4; i++ {
		i := i
		add(fmt.Sprintf("pair-or-%d", i), func(r credrec.Recorder, refs *[]credrec.Ref) {
			mint(r.NewDerived(credrec.OpOr, credrec.Of((*refs)[base+i]), credrec.Of((*refs)[base+(i+1)%4])), refs)
		})
		add(fmt.Sprintf("pair-use-%d", i), func(r credrec.Recorder, refs *[]credrec.Ref) {
			_ = r.MarkDirectUse((*refs)[base+4+i])
		})
	}
	add("pair-freeze-0", func(r credrec.Recorder, refs *[]credrec.Ref) { freeze(r, (*refs)[base]) })
	add("pair-flip-1", func(r credrec.Recorder, refs *[]credrec.Ref) { _ = r.SetState((*refs)[base+1], credrec.False) })
	add("pair-freeze-2", func(r credrec.Recorder, refs *[]credrec.Ref) { freeze(r, (*refs)[base+2]) })
	add("pair-revoke-3", func(r credrec.Recorder, refs *[]credrec.Ref) { _ = r.Invalidate((*refs)[base+3]) })
	add("sweep-3", func(r credrec.Recorder, refs *[]credrec.Ref) { r.Sweep() })
	return s
}

// shardedWorld is a durable sharded store and what it stands on.
type shardedWorld struct {
	ss       *credrec.ShardedStore
	engines  []*storage.Engine
	backends []*storage.Memory
}

func openShardedWorld(t *testing.T, backends []*storage.Memory, opts storage.Options) *shardedWorld {
	t.Helper()
	w := &shardedWorld{backends: backends}
	stores := make([]*credrec.Store, len(backends))
	for i, be := range backends {
		eng, err := storage.Open(be, opts)
		if err != nil {
			t.Fatalf("shard %s: recovery failed: %v", chaosShardNames[i], err)
		}
		w.engines = append(w.engines, eng)
		stores[i] = eng.Store()
	}
	var err error
	if w.ss, err = credrec.OpenShardedStore(chaosShardNames, stores); err != nil {
		t.Fatalf("opening the sharded store: %v", err)
	}
	return w
}

func freshBackends() []*storage.Memory {
	backends := make([]*storage.Memory, len(chaosShardNames))
	for i := range backends {
		backends[i] = storage.NewMemory()
	}
	return backends
}

func (w *shardedWorld) close(t *testing.T) {
	t.Helper()
	for _, eng := range w.engines {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// crash abandons the world, as a power loss would, and returns what
// each shard's medium kept.
func (w *shardedWorld) crash() []*storage.Memory {
	out := make([]*storage.Memory, len(w.backends))
	for i, be := range w.backends {
		out[i] = be.Crash(0)
	}
	return out
}

// shardedPrefixImages runs the script on an in-memory sharded store,
// capturing the image after every step, and insists that the script
// does cross shards.
func shardedPrefixImages(t *testing.T, script []pstep) [][]byte {
	t.Helper()
	ss, err := credrec.NewShardedStore(chaosShardNames, 0)
	if err != nil {
		t.Fatal(err)
	}
	var refs []credrec.Ref
	images := [][]byte{ss.Image()}
	bridged := 0
	for _, step := range script {
		step.run(ss, &refs)
		images = append(images, ss.Image())
		if bytes.Contains(images[len(images)-1], []byte(`ext="shard:`)) {
			bridged++
		}
	}
	if bridged < len(script)/2 {
		t.Fatalf("only %d of %d prefix images hold a bridge: the script no longer crosses shards", bridged, len(script))
	}
	return images
}

// TestKillPointsShardedSyncAlways crashes all four shards after every
// step under SyncAlways. Every record of every completed step is
// durable on its own shard, so recovery — per-shard replay with no
// observer, then the resync pass — must land on exactly the prefix
// image, and finishing the script must converge to the fault-free
// image: edges, shared bridges and leaf placement all came back.
func TestKillPointsShardedSyncAlways(t *testing.T) {
	script := shardedScript()
	images := shardedPrefixImages(t, script)
	const snapshotAt = 9 // every shard snapshots and compacts here

	for k := 0; k <= len(script); k++ {
		w := openShardedWorld(t, freshBackends(), storage.Options{Sync: credrec.SyncAlways})
		refs := runPrefix(script, w.ss, min(k, snapshotAt))
		if k > snapshotAt {
			for _, eng := range w.engines {
				if err := eng.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			for _, step := range script[snapshotAt:k] {
				step.run(w.ss, &refs)
			}
		}
		w2 := openShardedWorld(t, w.crash(), storage.Options{})
		if got := w2.ss.Image(); !bytes.Equal(got, images[k]) {
			t.Fatalf("kill after step %d (%q): recovered image is not the durable prefix\n-- recovered --\n%s\n-- want --\n%s",
				k, stepName(script, k), got, images[k])
		}
		scratch, err := credrec.NewShardedStore(chaosShardNames, 0)
		if err != nil {
			t.Fatal(err)
		}
		cont := runPrefix(script, scratch, k)
		for _, step := range script[k:] {
			step.run(w2.ss, &cont)
		}
		if got := w2.ss.Image(); !bytes.Equal(got, images[len(script)]) {
			t.Fatalf("kill after step %d: post-recovery run diverged from fault-free image\n-- got --\n%s\n-- want --\n%s",
				k, got, images[len(script)])
		}
		w2.close(t)
	}
}

// imageLine is one record of a Store image, as far as the invariants
// below read it.
type imageLine struct {
	ref, state, ext string
	perm            bool
}

func parseImage(t *testing.T, image []byte) []imageLine {
	t.Helper()
	var out []imageLine
	for _, line := range strings.Split(strings.TrimSpace(string(image)), "\n") {
		if line == "" {
			continue
		}
		var l imageLine
		var op, parents, children int
		var flags string
		if _, err := fmt.Sscanf(line, "%s op=%d state=%s perm=%t ext=%q flags=%q parents=%d children=%d",
			&l.ref, &op, &l.state, &l.perm, &l.ext, &flags, &parents, &children); err != nil {
			t.Fatalf("image line %q: %v", line, err)
		}
		out = append(out, l)
	}
	return out
}

// TestKillPointsShardedIndependentWatermarks is the batched-policy
// obligation: group commit is per shard, so a crash leaves every shard
// at a synced watermark of its own. The script runs once under
// SyncBatched with each shard's medium captured, fully synced, after
// every step. A crash after step k is then a vector of four step
// numbers, one per shard, each anywhere between k and the shard's
// floor: the last step at which the store itself waited for that
// shard's journal (before a value that is final and not False crosses
// to another shard, its owner's shard is synced — the one ordering
// between shards the store imposes; the floors are read off the
// images). For every vector tried, recovery must hold:
//
//   - every shard replays to a prefix of its own history (the image it
//     had after the step its medium was captured at);
//   - after the resync pass every bridge equals its parent's resolved
//     state (or, for a parent a sweep collected once it was final, the
//     state its shard last held), or is permanently False (a revocation
//     its parent's shard lost stays applied);
//   - a conjunction is true only if all its parents are — in
//     particular, nothing is true beneath a durably revoked parent;
//   - what a shard held permanently false stays so: resync never
//     revives it;
//   - the rebuilt edges carry cascades: revoking fact-0 afterwards
//     kills every surviving conjunction.
func TestKillPointsShardedIndependentWatermarks(t *testing.T) {
	script := shardedScript()
	n := len(chaosShardNames)
	w := openShardedWorld(t, freshBackends(), storage.Options{Sync: credrec.SyncBatched})
	capture := func() (media []*storage.Memory, shardImages [][]byte) {
		for i, eng := range w.engines {
			if err := eng.Store().Sync(); err != nil {
				t.Fatal(err)
			}
			media = append(media, w.backends[i].Crash(0))
			shardImages = append(shardImages, w.ss.ShardStore(i).Image())
		}
		return media, shardImages
	}
	// media[k][i], shardImages[k][i]: shard i once steps < k have run.
	media := make([][]*storage.Memory, len(script)+1)
	shardImages := make([][][]byte, len(script)+1)
	var refs []credrec.Ref
	type derivation struct {
		ref     credrec.Ref
		parents []credrec.Ref
	}
	var conjunctions []derivation
	media[0], shardImages[0] = capture()
	// floor[k][i]: the least step number shard i can be cut at by a crash
	// after step k. A bridge that reads final and not False after a step,
	// and did not before, had its parent's shard synced during it (this
	// script journals nothing more there in the same step).
	floor := [][]int{make([]int, n)}
	finalBridges := make(map[string]bool)
	for k, step := range script {
		before := len(refs)
		step.run(w.ss, &refs)
		floor = append(floor, append([]int(nil), floor[k]...))
		for i := 0; i < n; i++ {
			for _, l := range parseImage(t, w.ss.ShardStore(i).Image()) {
				if key := fmt.Sprint(i, l.ref); strings.HasPrefix(l.ext, "shard:") && l.perm && l.state != "false" && !finalBridges[key] {
					finalBridges[key] = true
					owner := l.ext[len("shard:"):strings.LastIndexByte(l.ext, '#')]
					for j, name := range chaosShardNames {
						if name == owner {
							floor[k+1][j] = k + 1
						}
					}
				}
			}
		}
		if strings.HasPrefix(step.name, "derive-") && len(refs) > before {
			var i int
			fmt.Sscanf(step.name, "derive-%d", &i)
			conjunctions = append(conjunctions, derivation{refs[before], []credrec.Ref{refs[i], refs[i+1]}})
		}
		media[k+1], shardImages[k+1] = capture()
	}
	w.close(t)
	if len(conjunctions) != 6 {
		t.Fatalf("tracked %d conjunctions, want 6", len(conjunctions))
	}

	check := func(cut []int) {
		backends := make([]*storage.Memory, n)
		for i := range backends {
			backends[i] = media[cut[i]][i].Crash(0) // recovery writes to its medium: work on a copy
		}
		engines := make([]*storage.Engine, n)
		stores := make([]*credrec.Store, n)
		var deadBefore [][]imageLine
		for i, be := range backends {
			var err error
			if engines[i], err = storage.Open(be, storage.Options{}); err != nil {
				t.Fatalf("cut %v: shard %d: recovery failed: %v", cut, i, err)
			}
			stores[i] = engines[i].Store()
			got := stores[i].Image()
			if !bytes.Equal(got, shardImages[cut[i]][i]) {
				t.Fatalf("cut %v: shard %d did not recover to its own history after step %d\n-- recovered --\n%s-- want --\n%s",
					cut, i, cut[i], got, shardImages[cut[i]][i])
			}
			deadBefore = append(deadBefore, parseImage(t, got))
		}
		ss, err := credrec.OpenShardedStore(chaosShardNames, stores)
		if err != nil {
			t.Fatalf("cut %v: %v", cut, err)
		}
		for i := 0; i < n; i++ {
			after := make(map[string]imageLine)
			for _, l := range parseImage(t, ss.ShardStore(i).Image()) {
				after[l.ref] = l
			}
			for _, l := range deadBefore[i] {
				if l.perm && l.state == "false" {
					if a, ok := after[l.ref]; !ok || !a.perm || a.state != "false" {
						t.Fatalf("cut %v: shard %d: %s was permanently false before the resync pass and is %+v after", cut, i, l.ref, a)
					}
				}
			}
			for _, l := range after {
				if !strings.HasPrefix(l.ext, "shard:") {
					continue
				}
				_, parent, err := credrec.ParseSurrogateName(l.ext)
				if err != nil {
					t.Fatalf("bridge name %q: %v", l.ext, err)
				}
				ps, pperm, perr := ss.Resolve(parent)
				pstate, pid := ps.String(), ss.ShardOf(parent)
				local := credrec.Ref{Index: parent.Index &^ (uint32(pid) << 26), Magic: parent.Magic}.String()
				for k := cut[pid]; perr != nil && k >= 0; k-- {
					// A sweep collects a parent once it is final, as it
					// would a parent on the same shard: the bridge must
					// hold the value the parent's shard last held.
					for _, pl := range parseImage(t, shardImages[k][pid]) {
						if pl.ref == local {
							pstate, pperm, perr = pl.state, pl.perm, nil
						}
					}
				}
				equal := l.state == pstate && l.perm == pperm
				if !equal && !(l.perm && l.state == "false") {
					t.Fatalf("cut %v: shard %d: bridge %s is %s perm=%t, its parent %v is %v perm=%t",
						cut, i, l.ref, l.state, l.perm, parent, pstate, pperm)
				}
			}
		}
		for _, c := range conjunctions {
			if !ss.Valid(c.ref) {
				continue
			}
			for _, p := range c.parents {
				if !ss.Valid(p) {
					st, perm, _ := ss.Resolve(p)
					t.Fatalf("cut %v: %v is true beneath parent %v (%v perm=%t)\n%s", cut, c.ref, p, st, perm, ss.Image())
				}
			}
		}
		// And the edges work again: every conjunction descends from
		// fact-0, most of them across a bridge, so revoking it kills
		// whichever survived, on whichever shard they live.
		_ = ss.Invalidate(refs[1]) // dangling where its shard lost the allocation
		for _, c := range conjunctions {
			if ss.Valid(c.ref) {
				t.Fatalf("cut %v: %v outlived fact-0 after recovery\n%s", cut, c.ref, ss.Image())
			}
		}
		for _, eng := range engines {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(finalBridges) == 0 {
		t.Fatal("no final value other than False crossed shards: the script no longer exercises the ordering")
	}

	// For every crash time: each shard in turn as far behind as it can
	// be with the others current, then seeded random vectors.
	rng := rand.New(rand.NewSource(19))
	for k := 0; k <= len(script); k++ {
		for lag := 0; lag < n; lag++ {
			cut := []int{k, k, k, k}
			cut[lag] = floor[k][lag]
			check(cut)
		}
		for trial := 0; trial < 12; trial++ {
			cut := make([]int, n)
			for i := range cut {
				cut[i] = floor[k][i] + rng.Intn(k-floor[k][i]+1)
			}
			check(cut)
		}
	}
}
