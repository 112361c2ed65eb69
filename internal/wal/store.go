package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"uncertaindb/internal/obs"
)

// Options tunes a Store.
type Options struct {
	// SnapshotEvery is the number of appended records between compacted
	// snapshots. Zero selects 64; negative disables compaction (the log
	// grows without bound).
	SnapshotEvery int
	// Fsync forces an fsync of the log after every appended record. Off, a
	// crash of the machine (not just the process) can lose the records still
	// in the OS page cache; graceful shutdown always syncs.
	Fsync bool
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 64
	}
	return o
}

const (
	logName    = "wal.log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// Store is a durable catalog home: one data directory holding the
// append-only mutation log and its periodic compacted snapshots. Safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	log       *Log
	base      uint64 // version of the snapshot the current log extends
	sinceSnap int    // records appended since the last snapshot
	closed    bool

	// Observability (nil histograms/counters are no-ops; see Instrument).
	appendSeconds  *obs.Histogram
	fsyncSeconds   *obs.Histogram
	compactSeconds *obs.Histogram
	compactions    *obs.Counter
}

// Instrument registers the store's duration histograms and counters in reg:
// wal_append (log write), wal_fsync (explicit sync of an appended record,
// Fsync mode only) and wal_compaction (snapshot write + log reset)
// durations, plus a compaction counter. Call before serving traffic.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendSeconds = reg.Histogram("uncertaindb_wal_append_duration_seconds", "",
		"Duration of write-ahead-log record appends (write syscall, excluding fsync).", nil)
	s.fsyncSeconds = reg.Histogram("uncertaindb_wal_fsync_duration_seconds", "",
		"Duration of per-record log fsyncs (Fsync mode only).", nil)
	s.compactSeconds = reg.Histogram("uncertaindb_wal_compaction_duration_seconds", "",
		"Duration of snapshot compactions (snapshot write, rename, log reset).", nil)
	s.compactions = reg.Counter("uncertaindb_wal_compactions_total", "",
		"Number of completed snapshot compactions.")
}

// Open opens (or initializes) the data directory, recovers the catalog
// state — latest valid snapshot plus the valid prefix of the log tail, torn
// final record discarded — and returns the store, the recovered state, and
// the tail records that were replayed (for seeding a change feed).
//
// Recovery never panics on corrupt files: an unreadable snapshot falls back
// to the previous one (or the empty state), and the log is truncated to its
// longest valid prefix. A log or snapshot in another format version is not
// corrupt but unreadable by this build: Open returns ErrFormat and changes no
// file.
func Open(dir string, opts Options) (*Store, *State, []*Record, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	st, base, err := loadLatestSnapshot(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	log, recs, err := OpenLog(filepath.Join(dir, logName))
	if err != nil {
		return nil, nil, nil, err
	}
	// Replay the tail on top of the snapshot. Records at or below the
	// snapshot version are leftovers of a crash between snapshot write and
	// log reset — already reflected in the snapshot, skip them. A gap in the
	// chain (possible only under corruption ScanRecords cannot see, e.g. a
	// whole-frame deletion) ends the replay.
	var tail []*Record
	for _, rec := range recs {
		if rec.Version <= st.Version {
			continue
		}
		if err := st.Apply(rec); err != nil {
			break
		}
		tail = append(tail, rec)
	}
	s := &Store{dir: dir, opts: opts, log: log, base: base, sinceSnap: len(tail)}
	return s, st, tail, nil
}

// loadLatestSnapshot returns the newest decodable snapshot state and its
// version, or the empty state when none exists (or none survives decoding).
// A snapshot in another format version stops the search with ErrFormat.
func loadLatestSnapshot(dir string) (*State, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	type snap struct {
		version uint64
		name    string
	}
	var snaps []snap
	for _, e := range entries {
		if v, ok := snapVersion(e.Name()); ok {
			snaps = append(snaps, snap{v, e.Name()})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].version > snaps[j].version })
	for _, sn := range snaps {
		data, err := os.ReadFile(filepath.Join(dir, sn.name))
		if err != nil {
			continue
		}
		st, err := DecodeState(data)
		if errors.Is(err, ErrFormat) {
			return nil, 0, fmt.Errorf("%s: %w", sn.name, err)
		}
		if err != nil {
			continue // corrupt snapshot: fall back to the previous one
		}
		return st, st.Version, nil
	}
	return &State{}, 0, nil
}

// snapVersion returns the version a snapshot file name carries.
func snapVersion(name string) (uint64, bool) {
	hex, prefixed := strings.CutPrefix(name, snapPrefix)
	hex, suffixed := strings.CutSuffix(hex, snapSuffix)
	v, err := strconv.ParseUint(hex, 16, 64)
	return v, prefixed && suffixed && err == nil
}

// Append durably records one mutation. The state callback must return the
// catalog state after the record applied; it is only invoked when the append
// crosses the compaction threshold, at which point the store writes a fresh
// snapshot atomically (temp file + rename) and resets the log.
func (s *Store) Append(rec *Record, state func() *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal: store is closed")
	}
	// Write and (optionally) sync separately so the two costs are
	// observable apart: the write is the unavoidable append latency, the
	// fsync is the durability premium of Options.Fsync.
	t0 := time.Now()
	if err := s.log.Append(rec, false); err != nil {
		return err
	}
	s.appendSeconds.Observe(time.Since(t0))
	if s.opts.Fsync {
		t1 := time.Now()
		if err := s.log.Sync(); err != nil {
			return err
		}
		s.fsyncSeconds.Observe(time.Since(t1))
	}
	s.sinceSnap++
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		if err := s.compactLocked(state()); err != nil {
			// The record is durable in the log; a failed compaction only
			// postpones the next one.
			return nil
		}
	}
	return nil
}

// Compact writes a snapshot of the given state and drops the log records it
// covers. Exposed for graceful shutdown and tests; Append calls it
// automatically every SnapshotEvery records.
func (s *Store) Compact(state *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal: store is closed")
	}
	return s.compactLocked(state)
}

func (s *Store) compactLocked(state *State) error {
	if state.Version <= s.base {
		return nil
	}
	t0 := time.Now()
	name := fmt.Sprintf("%s%016x%s", snapPrefix, state.Version, snapSuffix)
	final := filepath.Join(s.dir, name)
	tmp := final + ".tmp"
	data := EncodeState(state)
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(s.dir)
	// The snapshot is durable: the log records it covers are redundant, and
	// older snapshots are superseded. A crash anywhere in this cleanup is
	// fine — recovery skips log records at or below the snapshot version and
	// ignores older snapshot files.
	if err := s.log.Reset(); err != nil {
		return err
	}
	s.removeSnapshotsBeforeLocked(state.Version)
	s.base = state.Version
	s.sinceSnap = 0
	s.compactSeconds.Observe(time.Since(t0))
	s.compactions.Inc()
	return nil
}

func (s *Store) removeSnapshotsBeforeLocked(version uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if v, ok := snapVersion(e.Name()); ok && v < version {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// CompactedBefore returns the version of the snapshot the current log
// extends: records at or below it are no longer individually available.
func (s *Store) CompactedBefore() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// TailRecords returns the retained records with Version > from, oldest
// first, by re-reading the log. It returns ErrCompacted when from predates
// the log's base snapshot — the caller must re-sync from a full state.
func (s *Store) TailRecords(from uint64) ([]*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.base {
		return nil, fmt.Errorf("%w (from %d, compacted through %d)", ErrCompacted, from, s.base)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, logName))
	if err != nil {
		return nil, err
	}
	recs, _, err := ScanRecords(data)
	if err != nil {
		return nil, err
	}
	out := recs[:0]
	for _, rec := range recs {
		if rec.Version > from {
			out = append(out, rec)
		}
	}
	return out, nil
}

// Sync flushes the log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.log.Sync()
}

// Close syncs and closes the store. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename within it is durable; best-effort
// on platforms where directories cannot be opened for sync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
