package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Dir is a file-system Backend: one directory holding journal segments
// (journal-NNNNNNNN.seg) and snapshots (snapshot-NNNNNNNN.snap).
// Snapshots are installed atomically — written to a .tmp file, fsynced,
// then renamed into place — so a crash mid-snapshot leaves the previous
// snapshot authoritative and the journal intact. Segment writes go
// straight to the file descriptor (the store's committer already
// batches), and Segment.Sync is fsync.
type Dir struct {
	dir string
}

const (
	segPrefix  = "journal-"
	segSuffix  = ".seg"
	snapPrefix = "snapshot-"
	snapSuffix = ".snap"
)

// OpenDir opens (creating if needed) a store directory, discarding any
// half-written snapshot tmp files from an earlier crash.
func OpenDir(dir string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, f := range leftovers {
		_ = os.Remove(f)
	}
	return &Dir{dir: dir}, nil
}

func (d *Dir) segPath(n uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix))
}

func (d *Dir) snapPath(n uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("%s%08d%s", snapPrefix, n, snapSuffix))
}

// scan lists the numbers of files matching prefix/suffix, ascending.
func (d *Dir) scan(prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		n, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ListSegments returns segment numbers in ascending order.
func (d *Dir) ListSegments() ([]uint64, error) { return d.scan(segPrefix, segSuffix) }

// OpenSegment opens segment n for reading.
func (d *Dir) OpenSegment(n uint64) (io.ReadCloser, error) {
	return os.Open(d.segPath(n))
}

// CreateSegment creates segment n for appending.
func (d *Dir) CreateSegment(n uint64) (Segment, error) {
	f, err := os.OpenFile(d.segPath(n), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	d.syncDir()
	return f, nil
}

// TruncateSegment durably truncates segment n to size bytes (recovery
// cutting a torn tail). Idempotent under crashes: if the fsync never
// lands, the next recovery finds the same tear and truncates again.
func (d *Dir) TruncateSegment(n uint64, size int64) error {
	f, err := os.OpenFile(d.segPath(n), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if terr := f.Truncate(size); terr != nil {
		f.Close()
		return terr
	}
	if serr := f.Sync(); serr != nil {
		f.Close()
		return serr
	}
	return f.Close()
}

// RemoveSegment deletes segment n.
func (d *Dir) RemoveSegment(n uint64) error {
	if err := os.Remove(d.segPath(n)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// WriteSnapshot installs a snapshot atomically via tmp + rename.
func (d *Dir) WriteSnapshot(n uint64, write func(io.Writer) error) error {
	final := d.snapPath(n)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	d.syncDir()
	return nil
}

// LoadSnapshot opens the newest snapshot.
func (d *Dir) LoadSnapshot() (uint64, io.ReadCloser, bool, error) {
	snaps, err := d.scan(snapPrefix, snapSuffix)
	if err != nil || len(snaps) == 0 {
		return 0, nil, false, err
	}
	n := snaps[len(snaps)-1]
	f, err := os.Open(d.snapPath(n))
	if err != nil {
		return 0, nil, false, err
	}
	return n, f, true, nil
}

// RemoveSnapshotsBelow deletes snapshots numbered strictly below n.
func (d *Dir) RemoveSnapshotsBelow(n uint64) error {
	snaps, err := d.scan(snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	for _, k := range snaps {
		if k < n {
			if err := os.Remove(d.snapPath(k)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// Close releases the backend.
func (d *Dir) Close() error { return nil }

// syncDir fsyncs the directory so renames and creations are durable;
// best effort (some filesystems refuse directory fsync).
func (d *Dir) syncDir() {
	if f, err := os.Open(d.dir); err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
}
