// Package catalog is a concurrency-safe registry of named c-tables and
// pc-tables — the resident state of the uncertaind query service.
//
// The catalog is versioned: every mutation bumps a global version and stamps
// the affected entry with it. Readers never touch the live map; they take a
// Snapshot, an immutable view with a consistent version, so an in-flight
// query keeps seeing the catalog as it was when the query started while
// tables are added or replaced concurrently. Per-entry versions let a plan
// cache tell whether a compiled artifact is current for exactly the tables a
// query reads, and an entry's change versions (DistsVersion, RewriteVersion)
// tell it how a stale artifact can be brought up to date.
//
// The catalog is also the mutation source of the durability layer
// (internal/wal): a Sink attached with SetSink receives every mutation as a
// wal.Record while the catalog lock is held, so the log order is exactly the
// version order, and a failed append rolls the mutation back — a mutation is
// acknowledged only once it is durable. NewFromState rebuilds a catalog from
// a recovered wal.State with every version preserved, and Watch exposes the
// mutation stream as a consumable change feed for replicas.
package catalog

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/wal"
)

// ErrCompacted reports a Watch request for versions older than the oldest
// retained change record; the consumer must re-sync from a snapshot of the
// catalog and watch again from the current version.
var ErrCompacted = wal.ErrCompacted

// ErrFutureVersion reports a Watch request from a version the catalog has
// not reached yet — the consumer's cursor is ahead of this catalog, which
// means it followed a different (or resynced) history. HTTP layers map it to
// 400; callers classify with errors.Is instead of string-matching.
var ErrFutureVersion = errors.New("catalog: watch version is ahead of the catalog")

// Sink consumes catalog mutation records — the durability hook. Append is
// called with the catalog lock held, after the mutation has been applied;
// state returns the catalog state including the record (used by the sink to
// write compacted snapshots). An Append error rolls the mutation back.
type Sink interface {
	Append(rec *wal.Record, state func() *wal.State) error
}

// TailReader is an optional Sink capability: serving historical mutation
// records for change-feed backfill beyond the catalog's in-memory window.
// *wal.Store implements it.
type TailReader interface {
	TailRecords(from uint64) ([]*wal.Record, error)
}

// Entry is one named table of the catalog. Entries are immutable after
// registration: Put copies the table it is handed, and callers must not
// mutate a table obtained from a snapshot.
type Entry struct {
	// Name is the relation name queries use to reference the table.
	Name string
	// Table is the pc-table. For a plain (incomplete, non-probabilistic)
	// c-table it carries no distributions and Probabilistic is false.
	Table *pctable.PCTable
	// Probabilistic reports whether the table has variable distributions
	// attached (every variable, validated at registration).
	Probabilistic bool
	// Version is the catalog version at which this entry was installed.
	Version uint64
	// DistsVersion is the version at which the table's distribution set
	// last changed: its put, or the last patch that added a distribution.
	DistsVersion uint64
	// RewriteVersion is the version at which the table last changed other
	// than by a pure tail append: its put, or the last patch that removed a
	// row or added a distribution. Every patch after it only appended rows,
	// so the rows of the entry at any version from RewriteVersion on are a
	// prefix of this entry's rows.
	RewriteVersion uint64
	// Patches counts the patches applied to the table since its put (since
	// recovery or resync for a recovered entry).
	Patches uint64
}

// newEntry is a wholesale-installed entry (put, recovery, resync): both
// change versions are its own.
func newEntry(name string, t *pctable.PCTable, probabilistic bool, version uint64) *Entry {
	return &Entry{Name: name, Table: t, Probabilistic: probabilistic, Version: version, DistsVersion: version, RewriteVersion: version}
}

// patched is the successor of e after ap was applied at version.
func (e *Entry) patched(ap *wal.AppliedPatch, probabilistic bool, version uint64) *Entry {
	next := &Entry{Name: e.Name, Table: ap.New, Probabilistic: probabilistic, Version: version,
		DistsVersion: e.DistsVersion, RewriteVersion: e.RewriteVersion, Patches: e.Patches + 1}
	if len(ap.AddedDists) > 0 {
		next.DistsVersion = version
	}
	if !ap.InsertOnly() {
		next.RewriteVersion = version
	}
	return next
}

// changelogCap is the default bound of the in-memory change window kept for
// Watch backfill. Older records are served by the sink's TailReader when
// available, and are ErrCompacted otherwise. SetChangeWindow overrides it.
const changelogCap = 1024

// Catalog is the mutable, concurrency-safe registry. The zero value is not
// usable; call New or NewFromState.
type Catalog struct {
	mu      sync.RWMutex
	version uint64
	tables  map[string]*Entry

	sink Sink // optional durability hook; appends under mu

	// rowKeys caches, per table, the row-identity set of the entry's current
	// rows, so successive patches index a large table once and then pay
	// O(patch) per application (wal.ApplyPatchToTableKeyed). Dropped whenever
	// the table is replaced wholesale (put, delete, reset) or a patch fails
	// mid-application; rebuilt lazily on the next patch.
	rowKeys map[string]*wal.RowKeySet

	// Change feed: a bounded in-memory window of recent mutation records
	// (oldest first, contiguous versions) plus the live watcher set.
	// changeTimes runs parallel to changelog: the wall-clock commit time of
	// each record in unix nanoseconds (0 for records recovered or replicated
	// rather than committed here) — the source of replication-lag
	// measurements, kept out of wal.Record so the on-disk format stays pure.
	changelog   []*wal.Record
	changeTimes []int64
	windowCap   int
	watchers    map[uint64]chan *wal.Record
	nextWatcher uint64

	// snapshots counts Snapshot calls (one per query/batch execution) for
	// the observability layer; atomic so readers never take mu.
	snapshots atomic.Uint64
}

// Snapshots returns the number of snapshots taken since construction.
func (c *Catalog) Snapshots() uint64 { return c.snapshots.Load() }

// New returns an empty catalog at version 0.
func New() *Catalog {
	return &Catalog{
		tables:    make(map[string]*Entry),
		rowKeys:   make(map[string]*wal.RowKeySet),
		watchers:  make(map[uint64]chan *wal.Record),
		windowCap: changelogCap,
	}
}

// SetChangeWindow bounds the in-memory change window kept for Watch backfill
// (default 1024 records). A smaller window trades memory for earlier
// ErrCompacted on lagging consumers; tests use it to force the resync path
// without thousands of mutations. Values below 1 select 1.
func (c *Catalog) SetChangeWindow(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.windowCap = n
	c.trimWindowLocked()
}

// trimWindowLocked drops the oldest window entries beyond windowCap, keeping
// changelog and changeTimes aligned.
func (c *Catalog) trimWindowLocked() {
	if n := len(c.changelog); n > c.windowCap {
		c.changelog = append(c.changelog[:0], c.changelog[n-c.windowCap:]...)
		c.changeTimes = append(c.changeTimes[:0], c.changeTimes[n-c.windowCap:]...)
	}
}

// NewFromState rebuilds a catalog from a recovered durable state, preserving
// the catalog version and every per-entry version (so plan-cache keys and
// client-visible table versions are stable across restarts). tail seeds the
// change window with the records replayed during recovery, letting watchers
// backfill across the restart.
func NewFromState(st *wal.State, tail []*wal.Record) *Catalog {
	c := New()
	c.version = st.Version
	for _, ts := range st.Tables {
		c.tables[ts.Name] = newEntry(ts.Name, ts.Table, ts.Probabilistic, ts.Version)
	}
	if n := len(tail); n > c.windowCap {
		tail = tail[n-c.windowCap:]
	}
	c.changelog = append(c.changelog, tail...)
	// Recovered records have no commit time: they were committed by an
	// earlier process whose clock readings are gone.
	c.changeTimes = make([]int64, len(c.changelog))
	return c
}

// SetSink attaches the durability hook. Attach before serving mutations;
// mutations fail (and roll back) when the sink's append fails.
func (c *Catalog) SetSink(s Sink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink = s
}

// State exports the catalog as a wal.State: the canonical, deterministic
// form used for snapshots and byte-identical comparisons. Tables are sorted
// by name and shared (entries are immutable).
func (c *Catalog) State() *wal.State {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stateLocked()
}

func (c *Catalog) stateLocked() *wal.State {
	st := &wal.State{Version: c.version, Tables: make([]wal.TableState, 0, len(c.tables))}
	for _, e := range c.tables {
		st.Tables = append(st.Tables, wal.TableState{Name: e.Name, Version: e.Version, Probabilistic: e.Probabilistic, Table: e.Table})
	}
	sort.Slice(st.Tables, func(i, j int) bool { return st.Tables[i].Name < st.Tables[j].Name })
	return st
}

// commitLocked finalizes a mutation under c.mu: it hands the record to the
// sink (rolling back via undo on failure), appends it to the change window
// (stamped with commitTime when non-zero) and fans it out to watchers. The
// caller has already applied the mutation to the live map and bumped the
// version.
func (c *Catalog) commitLocked(rec *wal.Record, commitTime int64, undo func()) error {
	if c.sink != nil {
		if err := c.sink.Append(rec, c.stateLocked); err != nil {
			undo()
			return fmt.Errorf("catalog: mutation not durable: %w", err)
		}
	}
	c.changelog = append(c.changelog, rec)
	c.changeTimes = append(c.changeTimes, commitTime)
	c.trimWindowLocked()
	for id, ch := range c.watchers {
		select {
		case ch <- rec:
		default:
			// Lagging consumer: close its channel so it observes the lag and
			// re-watches from the last version it processed.
			close(ch)
			delete(c.watchers, id)
		}
	}
	return nil
}

// CommitTime returns the wall-clock commit time of the given version in unix
// nanoseconds, when the version is still inside the change window and was
// committed by this process (replicated or recovered records have no local
// commit time). The change feed ships it so followers can measure
// replication lag in seconds against the leader's clock.
func (c *Catalog) CommitTime(version uint64) (int64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.changelog) == 0 {
		return 0, false
	}
	first := c.changelog[0].Version
	if version < first || version > c.changelog[len(c.changelog)-1].Version {
		return 0, false
	}
	t := c.changeTimes[version-first]
	return t, t != 0
}

// ApplyRecord applies one replicated mutation record — the follower-side
// counterpart of Put/Drop. The record must extend the version chain by
// exactly one (a gap means the follower missed history and must resync from
// a snapshot). The entry takes the record's version, so per-entry versions —
// and therefore plan-cache keys — are byte-for-byte the leader's. The
// record's table is installed without copying: feed records are decoded
// fresh off the wire and ownership transfers to the catalog.
//
// The record flows through the same commit path as local mutations: it
// reaches an attached sink (a durable follower logs what it applies), enters
// the change window and fans out to watchers — so a follower is itself a
// followable leader.
//
// It returns the applied row-level difference for KindPatch records (nil for
// puts and deletes).
func (c *Catalog) ApplyRecord(rec *wal.Record) (*wal.AppliedPatch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec.Version != c.version+1 {
		return nil, fmt.Errorf("catalog: record version %d does not extend catalog version %d", rec.Version, c.version)
	}
	return c.applyLocked(rec, 0)
}

// applyLocked installs rec, which extends the version chain by one, and
// commits it stamped with commitTime (see commitLocked). c.mu must be held.
func (c *Catalog) applyLocked(rec *wal.Record, commitTime int64) (*wal.AppliedPatch, error) {
	switch rec.Kind {
	case wal.KindPut:
		if rec.Table == nil {
			return nil, fmt.Errorf("catalog: put record for %q has no table", rec.Name)
		}
		prev, existed := c.tables[rec.Name]
		c.version = rec.Version
		c.tables[rec.Name] = newEntry(rec.Name, rec.Table, rec.Probabilistic, rec.Version)
		delete(c.rowKeys, rec.Name)
		return nil, c.commitLocked(rec, commitTime, func() {
			c.version = rec.Version - 1
			if existed {
				c.tables[rec.Name] = prev
			} else {
				delete(c.tables, rec.Name)
			}
		})
	case wal.KindDelete:
		prev, existed := c.tables[rec.Name]
		c.version = rec.Version
		delete(c.tables, rec.Name)
		delete(c.rowKeys, rec.Name)
		return nil, c.commitLocked(rec, commitTime, func() {
			c.version = rec.Version - 1
			if existed {
				c.tables[rec.Name] = prev
			}
		})
	case wal.KindPatch:
		prev, existed := c.tables[rec.Name]
		if !existed {
			return nil, fmt.Errorf("catalog: patch record for unknown table %q", rec.Name)
		}
		if rec.Patch == nil {
			return nil, fmt.Errorf("catalog: patch record for %q has no payload", rec.Name)
		}
		ap, keys, err := wal.ApplyPatchToTableKeyed(prev.Table, rec.Patch, c.rowKeys[rec.Name])
		if err != nil {
			delete(c.rowKeys, rec.Name) // may have been partially extended
			return nil, err
		}
		c.version = rec.Version
		c.tables[rec.Name] = prev.patched(ap, rec.Probabilistic, rec.Version)
		c.rowKeys[rec.Name] = keys
		return ap, c.commitLocked(rec, commitTime, func() {
			c.version = rec.Version - 1
			c.tables[rec.Name] = prev
			delete(c.rowKeys, rec.Name)
		})
	default:
		return nil, fmt.Errorf("catalog: unknown record kind %d", rec.Kind)
	}
}

// ResetToState replaces the catalog's entire content with the given state —
// the follower resync path after compacted history (ErrCompacted): the
// leader's snapshot becomes this catalog, versions and all. The change
// window is cleared (the records between the old and new state are unknown)
// and every watcher is closed, the same signal as close-on-lag: consumers
// must re-sync from a fresh snapshot of this catalog and re-Watch from its
// version.
func (c *Catalog) ResetToState(st *wal.State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version = st.Version
	c.tables = make(map[string]*Entry, len(st.Tables))
	c.rowKeys = make(map[string]*wal.RowKeySet)
	for _, ts := range st.Tables {
		c.tables[ts.Name] = newEntry(ts.Name, ts.Table, ts.Probabilistic, ts.Version)
	}
	c.changelog = c.changelog[:0]
	c.changeTimes = c.changeTimes[:0]
	for id, ch := range c.watchers {
		close(ch)
		delete(c.watchers, id)
	}
}

// Put registers (or replaces) the table under the given name and returns
// the new catalog version. The table is copied, so later mutations by the
// caller do not leak into the catalog. A table with distributions on some
// but not all of its variables is rejected — it is neither a usable c-table
// nor a valid pc-table, as is one that gives a variable a distribution other
// than another table's (pctable.ErrConflictingDists). With a sink attached,
// the mutation is durable before it is acknowledged: a failed append rolls
// the catalog back and returns the error.
func (c *Catalog) Put(name string, t *pctable.PCTable) (uint64, error) {
	return c.put(name, t, pctable.Env{name: t})
}

// put is Put, checking distributions over the catalog's tables with over
// laid on top (over holds t under name).
func (c *Catalog) put(name string, t *pctable.PCTable, over pctable.Env) (uint64, error) {
	probabilistic, err := validate(name, t)
	if err != nil {
		return 0, err
	}
	cp := t.Copy()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkDists(over); err != nil {
		return 0, err
	}
	rec := &wal.Record{Kind: wal.KindPut, Version: c.version + 1, Name: name, Probabilistic: probabilistic, Table: cp}
	if _, err := c.applyLocked(rec, time.Now().UnixNano()); err != nil {
		return 0, err
	}
	return c.version, nil
}

// ApplyPatch mutates rows of the named table in place — deletes and upserts
// keyed by canonical row identity plus add-only distributions, see wal.Patch
// — and returns the new catalog version together with the exact row-level
// difference. The patched table gets a fresh entry at the new version; like
// Put, a distribution conflicting with another table's is refused, and the
// mutation is durable before it is acknowledged and rolls back on a failed
// sink append. The patch is retained in the change feed, so the
// caller must not mutate it afterwards.
func (c *Catalog) ApplyPatch(name string, p *wal.Patch) (uint64, *wal.AppliedPatch, error) {
	if p == nil {
		return 0, nil, fmt.Errorf("catalog: nil patch for table %q", name)
	}
	if err := parser.CheckPatchScriptable(p); err != nil {
		return 0, nil, fmt.Errorf("catalog: patch of %s cannot be persisted: %w", name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.tables[name]
	if !ok {
		return 0, nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	ap, keys, err := wal.ApplyPatchToTableKeyed(prev.Table, p, c.rowKeys[name])
	if err != nil {
		delete(c.rowKeys, name) // may have been partially extended
		return 0, nil, err
	}
	probabilistic, err := validatePatched(name, prev, ap)
	if err == nil && len(p.Dists) > 0 {
		err = c.checkDists(pctable.Env{name: ap.New})
	}
	if err != nil {
		delete(c.rowKeys, name)
		return 0, nil, err
	}
	c.version++
	c.tables[name] = prev.patched(ap, probabilistic, c.version)
	c.rowKeys[name] = keys
	rec := &wal.Record{Kind: wal.KindPatch, Version: c.version, Name: name, Probabilistic: probabilistic, Patch: p}
	if err := c.commitLocked(rec, time.Now().UnixNano(), func() {
		c.version--
		c.tables[name] = prev
		delete(c.rowKeys, name)
	}); err != nil {
		return 0, nil, err
	}
	return c.version, ap, nil
}

// validatePatched is validate specialized to a patch result. For an
// insert-only application the previous entry was already validated and
// nothing about the surviving rows or the distributions changed, so only the
// appended rows need checking — O(Δ) instead of a full variable scan. Any
// case that could flip the verdict in a way the appended rows alone cannot
// decide (removed rows, added distributions, or a suspected mixed table)
// falls through to the full validation, which also produces the canonical
// error message.
func validatePatched(name string, prev *Entry, ap *wal.AppliedPatch) (bool, error) {
	if !ap.InsertOnly() {
		return validate(name, ap.New)
	}
	rows := ap.New.Table().Rows()
	added := rows[len(rows)-ap.AddedRows:]
	for _, r := range added {
		for _, term := range r.Terms {
			if term.IsVar && (ap.New.Dist(term.Var) != nil) != prev.Probabilistic {
				return validate(name, ap.New)
			}
		}
		for _, x := range condition.Vars(r.Cond) {
			if (ap.New.Dist(x) != nil) != prev.Probabilistic {
				return validate(name, ap.New)
			}
		}
	}
	return prev.Probabilistic, nil
}

// checkDists refuses a write whose tables, laid over the catalog's, give a
// variable two distributions. c.mu must be held.
func (c *Catalog) checkDists(over pctable.Env) error {
	env := maps.Clone(over)
	for name, e := range c.tables {
		if env[name] == nil {
			env[name] = e.Table
		}
	}
	return pctable.CheckDists(env)
}

// LoadScript parses a catalog script (one or more table descriptions, see
// parser.ParseCatalog) and registers every table, returning the names in
// declaration order. Loading is all-or-nothing: every table is validated
// before any is registered, and each put checks distributions against the
// whole script, so on error the catalog is unchanged.
func (c *Catalog) LoadScript(r io.Reader) ([]string, error) {
	parsed, err := parser.ParseCatalog(r)
	if err != nil {
		return nil, err
	}
	over := make(pctable.Env, len(parsed))
	for _, pt := range parsed {
		if _, err := validate(pt.Name, pt.PCTable); err != nil {
			return nil, err
		}
		over[pt.Name] = pt.PCTable
	}
	names := make([]string, 0, len(parsed))
	for _, pt := range parsed {
		if _, err := c.put(pt.Name, pt.PCTable, over); err != nil {
			return nil, err
		}
		names = append(names, pt.Name)
	}
	return names, nil
}

// validate checks a (name, table) pair for registration — the name and
// variables must survive the table's script, the one form it is persisted
// and replicated in — and reports whether the table is probabilistic. It
// never mutates anything, so LoadScript can pre-validate a whole script
// before registering its first table.
func validate(name string, t *pctable.PCTable) (probabilistic bool, err error) {
	if t == nil {
		return false, fmt.Errorf("catalog: table %s is nil", name)
	}
	if err := parser.CheckScriptable(name, t); err != nil {
		return false, fmt.Errorf("catalog: table %s cannot be persisted: %w", name, err)
	}
	probabilistic = t.Validate() == nil
	if !probabilistic && slices.ContainsFunc(t.Vars(), func(x condition.Variable) bool { return t.Dist(x) != nil }) {
		return false, fmt.Errorf("catalog: table %s has distributions for some variables but not all: %v", name, t.Validate())
	}
	return probabilistic, nil
}

// Drop removes the table of that name, if present, and reports whether it
// existed. Dropping bumps the version, so snapshots taken before keep the
// table while later plans see it gone. With a sink attached, the drop is
// durable before it is acknowledged; a failed append rolls it back.
func (c *Catalog) Drop(name string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tables[name] == nil {
		return false, nil
	}
	_, err := c.applyLocked(&wal.Record{Kind: wal.KindDelete, Version: c.version + 1, Name: name}, time.Now().UnixNano())
	return err == nil, err
}

// Watch opens a change feed delivering every mutation record with version
// greater than from, in version order: first the retained backlog (from the
// in-memory window, extended by the sink's TailReader when the window is too
// short), then live mutations as they commit. It returns ErrCompacted when
// records after from are no longer retained — the consumer must re-sync from
// a catalog snapshot and watch from its version.
//
// The returned channel closes when the consumer lags behind the live feed
// (its buffer overflows); re-Watch from the last version processed. Close
// the watcher to release it.
func (c *Catalog) Watch(from uint64) (*Watcher, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if from > c.version {
		return nil, fmt.Errorf("%w (from %d, but the catalog is at %d)", ErrFutureVersion, from, c.version)
	}
	var backlog []*wal.Record
	oldestRetained := c.version // may serve from >= oldestRetained with an empty window
	if len(c.changelog) > 0 {
		oldestRetained = c.changelog[0].Version - 1
	}
	switch {
	case from >= oldestRetained:
		for _, rec := range c.changelog {
			if rec.Version > from {
				backlog = append(backlog, rec)
			}
		}
	default:
		tr, ok := c.sink.(TailReader)
		if !ok {
			return nil, fmt.Errorf("%w (from %d, retained from %d)", ErrCompacted, from, oldestRetained)
		}
		recs, err := tr.TailRecords(from)
		if err != nil {
			return nil, err
		}
		// The store tail and the in-memory window overlap on recent records;
		// merge by version (both are contiguous and consistent).
		seen := uint64(from)
		for _, rec := range recs {
			if rec.Version == seen+1 {
				backlog = append(backlog, rec)
				seen = rec.Version
			}
		}
		for _, rec := range c.changelog {
			if rec.Version == seen+1 {
				backlog = append(backlog, rec)
				seen = rec.Version
			}
		}
		if seen != c.version {
			return nil, fmt.Errorf("%w (records (%d, %d] not retained)", ErrCompacted, seen, c.version)
		}
	}
	ch := make(chan *wal.Record, len(backlog)+64)
	for _, rec := range backlog {
		ch <- rec
	}
	id := c.nextWatcher
	c.nextWatcher++
	c.watchers[id] = ch
	return &Watcher{c: c, id: id, ch: ch}, nil
}

// Watcher is one change-feed subscription; see Catalog.Watch.
type Watcher struct {
	c  *Catalog
	id uint64
	ch chan *wal.Record
}

// C returns the record channel. It closes when the watcher is Closed or
// when the consumer lags and is dropped.
func (w *Watcher) C() <-chan *wal.Record { return w.ch }

// Close unsubscribes the watcher and closes its channel (idempotent).
func (w *Watcher) Close() {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	if ch, ok := w.c.watchers[w.id]; ok {
		delete(w.c.watchers, w.id)
		close(ch)
	}
}

// Version returns the current catalog version (0 for an empty, untouched
// catalog).
func (c *Catalog) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// Snapshot returns an immutable view of the catalog: a consistent
// (version, entries) pair. Taking a snapshot is O(#tables) map copy; the
// entries themselves are shared and immutable.
func (c *Catalog) Snapshot() *Snapshot {
	c.snapshots.Add(1)
	c.mu.RLock()
	defer c.mu.RUnlock()
	tables := make(map[string]*Entry, len(c.tables))
	for name, e := range c.tables {
		tables[name] = e
	}
	return &Snapshot{version: c.version, tables: tables}
}

// Snapshot is an immutable view of the catalog at one version.
type Snapshot struct {
	version uint64
	tables  map[string]*Entry
}

// Version returns the catalog version the snapshot was taken at.
func (s *Snapshot) Version() uint64 { return s.version }

// Get returns the entry of that name, or nil if absent.
func (s *Snapshot) Get(name string) *Entry { return s.tables[name] }

// Len returns the number of tables in the snapshot.
func (s *Snapshot) Len() int { return len(s.tables) }

// Names returns the table names in sorted order.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Env resolves the given relation names against the snapshot, returning a
// pc-table environment for query evaluation. Unknown names are an error.
func (s *Snapshot) Env(names []string) (pctable.Env, error) {
	env := make(pctable.Env, len(names))
	for _, name := range names {
		e := s.tables[name]
		if e == nil {
			return nil, fmt.Errorf("catalog: unknown table %q (have %v)", name, s.Names())
		}
		env[name] = e.Table
	}
	return env, nil
}
