package benchmarks

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
)

// ---- E32: the persistence engine ----
//
// Two claims. First, journal-append throughput of the binary
// group-commit journal on concurrent mutators (-cpu 1,4,8): it encodes
// under the store lock but writes on a dedicated committer, so
// contending mutators pay one flush between them (BENCH_7.json keeps
// the text-journal baseline it replaced). Second, recovery time:
// replaying the full history versus loading a snapshot and replaying
// the tail, across history lengths — replay-all grows linearly,
// snapshot+tail stays flat.

// journalFile opens a real append-only file for a benchmark: the
// journal device is the filesystem, so every Write is a real syscall
// and Sync a real fsync — the costs group commit exists to amortise.
func journalFile(b *testing.B) *os.File {
	b.Helper()
	f, err := os.OpenFile(filepath.Join(b.TempDir(), "journal.seg"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return f
}

// countingSink wraps a sink, counting Writes and Syncs so the
// benchmarks report write amplification alongside latency.
type countingSink struct {
	dst    credrec.JournalSink
	writes atomic.Int64
	syncs  atomic.Int64
}

func (s *countingSink) Write(p []byte) (int, error) {
	s.writes.Add(1)
	return s.dst.Write(p)
}

func (s *countingSink) Sync() error {
	s.syncs.Add(1)
	return s.dst.Sync()
}

// appendWorkload is one mutator iteration: allocate a derived
// credential on a root and revoke it — two journaled operations.
func appendWorkload(r credrec.Recorder, root credrec.Ref) {
	c := r.NewDerived(credrec.OpAnd, credrec.Of(root))
	_ = r.Invalidate(c)
}

// BenchmarkPersistAppendBinary is the engine path: binary records,
// group commit, one fsync per batch.
func BenchmarkPersistAppendBinary(b *testing.B) {
	for _, policy := range []credrec.SyncPolicy{credrec.SyncBatched, credrec.SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			sink := &countingSink{dst: journalFile(b)}
			ls := credrec.NewStore()
			ls.StartJournal(sink, credrec.JournalOptions{Sync: policy})
			defer ls.Close()
			root := ls.NewFact(credrec.True)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					appendWorkload(ls, root)
				}
			})
			if err := ls.Sync(); err != nil { // drain inside the timer: the committer's work counts
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(sink.writes.Load())/float64(b.N), "writes/op")
			b.ReportMetric(float64(sink.syncs.Load())/float64(b.N), "syncs/op")
		})
	}
}

// persistHistory journals n append-workload operations into a memory
// backend through the engine, snapshotting every snapEvery ops (0 means
// never), and returns the backend for recovery benchmarks.
func persistHistory(b *testing.B, n, snapEvery int) *storage.Memory {
	b.Helper()
	be := storage.NewMemory()
	eng, err := storage.Open(be, storage.Options{Sync: credrec.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	ls := eng.Store()
	root := ls.NewFact(credrec.True)
	for i := 0; i < n/2; i++ {
		appendWorkload(ls, root)
		if snapEvery > 0 && i > 0 && i%(snapEvery/2) == 0 {
			ls.Sweep() // GC the fully-revoked subgraphs before the image
			if err := eng.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := ls.Sync(); err != nil {
		b.Fatal(err)
	}
	// Model a crash that loses nothing: recovery still has to do all
	// the work its strategy implies.
	return be.Crash(1 << 30)
}

// BenchmarkPersistRecovery compares rebuilding a store by full-history
// replay against snapshot-plus-tail recovery, across history lengths.
// The replay-all series grows linearly with history; the snapshot
// series is bounded by live records plus one segment tail.
func BenchmarkPersistRecovery(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("replayAll/%d", n), func(b *testing.B) {
			be := persistHistory(b, n, 0)
			segs, _ := be.ListSegments()
			var journal bytes.Buffer
			for _, s := range segs {
				r, err := be.OpenSegment(s)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := journal.ReadFrom(r); err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := credrec.Replay(bytes.NewReader(journal.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("snapshotTail/%d", n), func(b *testing.B) {
			be := persistHistory(b, n, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := storage.Open(be.Crash(1<<30), storage.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
