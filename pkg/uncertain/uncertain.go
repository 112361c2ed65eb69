// Package uncertain is the public facade of the uncertain-database library:
// one importable surface over the representation systems of the paper
// (c-tables and probabilistic c-tables), the closed relational algebra
// (Theorems 4 and 9) executed on the shared operator core, and the serving
// engine with its catalog and compiled-plan cache.
//
// There are two levels:
//
//   - DB is the serving level: a catalog of named tables plus an engine
//     with a compiled-plan cache. Open it, register table scripts, and run
//     Query/QueryBatch — this is what cmd/uncertaind serves over HTTP.
//   - Table is the single-table level: parse one table description, run a
//     query through the closed algebra, and inspect the answer (possible
//     worlds, certain answers, exact or sampled tuple marginals) — this is
//     what cmd/ctable and cmd/pctable drive.
//
// The table and query syntax is documented in internal/parser; the returned
// result types are shared with internal/engine via type aliases, so the
// facade adds no translation layer on the hot path.
package uncertain

import (
	"context"
	"io"
	"net/http"
	"os"
	"time"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/engine"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/obs"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/replica"
	"uncertaindb/internal/value"
	"uncertaindb/internal/wal"
)

// Typed errors, re-exported for callers that classify failures.
var (
	// ErrUnknownTable reports a query referencing a table the catalog does
	// not contain (HTTP layers map it to 404).
	ErrUnknownTable = engine.ErrUnknownTable
	// ErrBadQuery reports a request that can never succeed: unparsable
	// query text, an ill-formed algebra expression, an unknown marginal
	// engine, or a table without the distributions marginals need (HTTP
	// layers map it to 400).
	ErrBadQuery = engine.ErrBadQuery
	// ErrCompacted reports a change-feed request for versions older than the
	// oldest retained record; the consumer must re-sync (list the tables)
	// and resume from the current catalog version (HTTP layers map it to
	// 410 Gone).
	ErrCompacted = catalog.ErrCompacted
	// ErrFutureVersion reports a change-feed request from a version the
	// catalog has not reached yet — a client bug, or a consumer that
	// outlived a catalog reset (HTTP layers map it to 400).
	ErrFutureVersion = catalog.ErrFutureVersion
)

// Result is a query outcome: the answer rendering, the possible answer
// tuples with marginal probabilities, cache and timing metadata.
type Result = engine.Result

// TupleAnswer is one answer tuple with its marginal probability.
type TupleAnswer = engine.TupleAnswer

// BatchItem is one outcome of QueryBatch: a result or a per-query error.
type BatchItem = engine.BatchItem

// Stats is a snapshot of the engine's cache and latency counters.
type Stats = engine.Stats

// Selection is the engine=auto selector's lineage statistics and decision
// for one plan (Result.Selection).
type Selection = engine.Selection

// PlanNode is one operator of an EXPLAIN ANALYZE plan tree: the operator
// label (matching the rendered Plan), rows in/out, probe/residual counts and
// wall time, with a deterministic JSON form (zero the timings for goldens).
type PlanNode = exec.PlanNode

// Span is the canonical exported form of one trace span (name, duration,
// attributes, children).
type Span = obs.SpanExport

// SlowQuery is one captured slow execution: query text, engine, cache
// outcome, duration and the full span tree.
type SlowQuery = obs.SlowQuery

// Tuple is a tuple of values; its String renders "(v1, ..., vn)".
type Tuple = value.Tuple

// Config tunes an opened DB. The zero value is a sensible default.
type Config struct {
	// CacheSize bounds the number of cached prepared plans (LRU eviction).
	// Zero or negative selects 128.
	CacheSize int
	// Workers bounds the number of concurrently executing queries and the
	// morsel-driven parallelism inside each plan compilation (the batch
	// engine splits base-table scans into morsels executed on a pool of
	// this size). Zero or negative selects GOMAXPROCS.
	Workers int
	// DataDir, when non-empty, makes the catalog durable: every mutation is
	// appended to a write-ahead log in this directory before it is
	// acknowledged, compacted snapshots are written every SnapshotEvery
	// mutations, and Open recovers the catalog (latest valid snapshot plus
	// the valid log tail, torn final record discarded) with every table and
	// catalog version preserved byte-identically. Empty means in-memory
	// only: a restart loses the catalog.
	DataDir string
	// SnapshotEvery is the number of mutations between compacted snapshots
	// (DataDir only). Zero selects 64; negative disables compaction.
	SnapshotEvery int
	// Fsync forces an fsync of the log after every mutation (DataDir only).
	// Off, a machine crash (not just a process crash) can lose mutations
	// still in the OS page cache; Close always syncs.
	Fsync bool
	// DisableObservability turns off the observability core entirely: no
	// span recording, no metrics registry, no slow-query capture. On by
	// default because its hot-path cost is a few clock readings per query
	// (gated below 3% of the warm path by the E18 benchmark).
	DisableObservability bool
	// SlowQueryMillis is the slow-query capture threshold in milliseconds:
	// executions at or above it have their full span tree recorded in a ring
	// buffer (SlowQueries). Zero selects 100; negative disables capture.
	SlowQueryMillis int
	// SlowQueryCapacity bounds the slow-query ring buffer. Zero selects 128.
	SlowQueryCapacity int
	// Follow, when non-empty, opens the database as a read replica of the
	// leader uncertaind at this base URL: Open bootstraps the catalog from
	// the leader's snapshot and a background loop tails its change feed,
	// applying every mutation at the leader's exact versions. The database
	// is then read-only — mutations fail with ErrReadOnly — and mutually
	// exclusive with DataDir (the leader owns the durable history).
	Follow string
	// FollowClient is the HTTP client used for leader RPCs (Follow only).
	// Nil selects a default transport; tests inject fault-injecting
	// transports here.
	FollowClient *http.Client
	// ChangeWindow bounds the in-memory change-feed window: the recent
	// mutations Changes/Watch serve without WAL backfill. Zero selects 1024.
	// Consumers older than the window get ErrCompacted (durable catalogs
	// backfill from the WAL instead), so a small window forces lagging
	// followers through the snapshot-resync path — a memory-control and
	// fault-injection knob.
	ChangeWindow int
}

// Request is one query execution.
type Request struct {
	// Query is the relational algebra query text.
	Query string
	// Engine selects the marginal engine: "dtree" (default, per-tuple
	// decomposition), "circuit" (one shared circuit per answer), "enum"
	// (brute-force enumeration), "mc" (Monte-Carlo), or "auto" (pick
	// per answer from lineage statistics; see Selection on the Result).
	Engine string
	// Samples is the Monte-Carlo sample count (mc only; default 10000).
	Samples int
	// Seed is the Monte-Carlo random seed (mc only; default 1).
	Seed int64
	// Workers shards the Monte-Carlo draw (mc only; default 1).
	Workers int
	// Analyze attaches an EXPLAIN ANALYZE plan tree (per-operator wall
	// time, rows in/out, probe and residual counts) and the execution's span
	// tree to the Result. The instrumented run is separate from the cached
	// artifact and never perturbs the answer or the plan cache.
	Analyze bool
	// Distributions overrides variable distributions for this execution
	// only (what-if): variable name → {value literal → probability}. Each
	// override must form a probability distribution within the variable's
	// declared support. What-if marginals are computed fresh per request
	// and never cached; the circuit engine re-weights its cached circuit
	// without re-decomposing, so prepared what-ifs are nearly free.
	Distributions map[string]map[string]float64
}

func (r Request) internal() engine.Request {
	return engine.Request{Query: r.Query, Engine: r.Engine, Samples: r.Samples, Seed: r.Seed, Workers: r.Workers, Analyze: r.Analyze, Distributions: r.Distributions}
}

// TableInfo is the metadata of one catalog table.
type TableInfo struct {
	Name          string
	Arity         int
	Rows          int
	Variables     int
	Probabilistic bool
	Version       uint64
}

func entryInfo(e *catalog.Entry) TableInfo {
	return TableInfo{
		Name:          e.Name,
		Arity:         e.Table.Arity(),
		Rows:          e.Table.NumRows(),
		Variables:     len(e.Table.Vars()),
		Probabilistic: e.Probabilistic,
		Version:       e.Version,
	}
}

// DB is an open uncertain database: a versioned catalog of named c-/pc-
// tables and a query engine with a compiled-plan cache. Safe for concurrent
// use.
type DB struct {
	eng      *engine.Engine
	store    *wal.Store        // nil when in-memory
	obs      *obs.Observer     // nil when observability is disabled
	follower *replica.Follower // nil unless opened with Config.Follow
}

// Open creates a database with the given configuration. With an empty
// DataDir the database is in-memory and Open cannot fail; with a DataDir it
// recovers the durable catalog from disk (see Config.DataDir) and attaches
// the write-ahead log, so every later mutation is durable before it is
// acknowledged. Close a durable DB to flush and release the log.
func Open(cfg Config) (*DB, error) {
	var ob *obs.Observer
	if !cfg.DisableObservability {
		slowMs := cfg.SlowQueryMillis
		if slowMs == 0 {
			slowMs = 100
		}
		var threshold time.Duration
		if slowMs > 0 {
			threshold = time.Duration(slowMs) * time.Millisecond
		}
		slowCap := cfg.SlowQueryCapacity
		if slowCap <= 0 {
			slowCap = 128
		}
		ob = obs.NewObserver(threshold, slowCap)
	}
	engOpts := engine.Options{
		CacheSize: cfg.CacheSize,
		Workers:   cfg.Workers,
		Obs:       ob,
	}
	window := func(cat *catalog.Catalog) *catalog.Catalog {
		if cfg.ChangeWindow > 0 {
			cat.SetChangeWindow(cfg.ChangeWindow)
		}
		return cat
	}
	if cfg.Follow != "" {
		db := &DB{eng: engine.New(window(catalog.New()), engOpts), obs: ob}
		if err := db.openFollower(cfg); err != nil {
			return nil, err
		}
		return db, nil
	}
	if cfg.DataDir == "" {
		return &DB{eng: engine.New(window(catalog.New()), engOpts), obs: ob}, nil
	}
	store, state, tail, err := wal.Open(cfg.DataDir, wal.Options{SnapshotEvery: cfg.SnapshotEvery, Fsync: cfg.Fsync})
	if err != nil {
		return nil, err
	}
	if ob != nil {
		store.Instrument(ob.Reg)
	}
	cat := window(catalog.NewFromState(state, tail))
	cat.SetSink(store)
	return &DB{eng: engine.New(cat, engOpts), store: store, obs: ob}, nil
}

// MustOpen is Open for configurations that cannot fail (no DataDir); it
// panics on error.
func MustOpen(cfg Config) *DB {
	db, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// Close flushes the write-ahead log to stable storage and closes it; every
// mutation acknowledged before Close survives a restart. Closing an
// in-memory DB is a no-op. Queries remain servable after Close, but further
// mutations fail.
func (db *DB) Close() error {
	if db.follower != nil {
		db.follower.Close()
	}
	if db.store == nil {
		return nil
	}
	return db.store.Close()
}

// Change is one catalog mutation, as exposed by the change feed. For a put,
// Table carries the canonical encoding of the table (wal.DecodeTable
// decodes it; replicas apply it byte-faithfully) and Text a human-readable
// rendering. For a patch, Patch carries the canonical encoding of the
// row-level mutation (wal.DecodePatch) — replicas re-apply it against their
// own copy of the table and land on byte-identical rows.
type Change struct {
	Version       uint64
	Kind          string // "put", "delete", or "patch"
	Name          string
	Probabilistic bool
	Table         []byte
	Patch         []byte
	Text          string
	// CommittedUnixNano is the wall-clock commit time of the mutation, when
	// this process still knows it (0 for records replayed from the WAL after
	// a restart, or applied by replication). Replication lag metrics are
	// computed from it.
	CommittedUnixNano int64
}

func (db *DB) changeOf(rec *wal.Record) Change {
	ch := Change{Version: rec.Version, Kind: rec.Kind.String(), Name: rec.Name, Probabilistic: rec.Probabilistic}
	if rec.Table != nil {
		ch.Table = wal.EncodeTable(rec.Table)
		ch.Text = rec.Table.String()
	}
	if rec.Patch != nil {
		ch.Patch = wal.EncodePatch(rec.Patch)
	}
	if t, ok := db.eng.Catalog().CommitTime(rec.Version); ok {
		ch.CommittedUnixNano = t
	}
	return ch
}

// Changes returns the catalog mutations with version greater than from, in
// version order, up to limit (0 means no limit), together with the current
// catalog version. When no records are immediately available and wait is
// positive, it blocks up to wait (or ctx) for the next mutation. It returns
// ErrCompacted when records after from are no longer retained — re-sync by
// listing the tables and resume from the returned catalog version.
func (db *DB) Changes(ctx context.Context, from uint64, limit int, wait time.Duration) ([]Change, uint64, error) {
	w, err := db.eng.Catalog().Watch(from)
	if err != nil {
		return nil, db.eng.Catalog().Version(), err
	}
	defer w.Close()
	var out []Change
	full := func() bool { return limit > 0 && len(out) >= limit }
	drain := func() {
		for !full() {
			select {
			case rec, ok := <-w.C():
				if !ok {
					return
				}
				out = append(out, db.changeOf(rec))
			default:
				return
			}
		}
	}
	drain()
	if len(out) == 0 && wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case rec, ok := <-w.C():
			if ok {
				out = append(out, db.changeOf(rec))
				drain()
			}
		case <-timer.C:
		case <-ctx.Done():
		}
	}
	return out, db.eng.Catalog().Version(), nil
}

// LoadCatalog parses a catalog script (one or more table descriptions) and
// registers every table, returning the names in declaration order. Loading
// is all-or-nothing.
func (db *DB) LoadCatalog(r io.Reader) ([]string, error) {
	if err := db.readOnlyErr(); err != nil {
		return nil, err
	}
	return db.eng.LoadCatalogScript(r)
}

// LoadCatalogFile is LoadCatalog over a file path.
func (db *DB) LoadCatalogFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return db.LoadCatalog(f)
}

// PutTableScript parses a single table description and registers (or
// replaces) it under its declared name, returning the name and the new
// catalog version. Cached plans reading the table are invalidated.
func (db *DB) PutTableScript(script string) (name string, version uint64, err error) {
	if err := db.readOnlyErr(); err != nil {
		return "", 0, err
	}
	pt, err := parser.ParseTableString(script)
	if err != nil {
		return "", 0, err
	}
	version, err = db.eng.PutParsed(pt)
	if err != nil {
		return "", 0, err
	}
	return pt.Name, version, nil
}

// PutTable registers (or replaces) a parsed table under its declared name,
// returning the new catalog version. Cached plans reading it are
// invalidated.
func (db *DB) PutTable(t *Table) (uint64, error) {
	if err := db.readOnlyErr(); err != nil {
		return 0, err
	}
	return db.eng.PutTable(t.name, t.pc)
}

// PatchTableScript parses a patch script (delete/upsert/dist directives in
// the table-script row syntax; see internal/parser) and applies it to the
// named table as one atomic row-level mutation, returning the new catalog
// version. Unlike PutTable, cached plans reading the table are incrementally
// maintained — deltas propagated through their operator trees and only the
// affected tuple marginals re-evaluated — rather than invalidated, where the
// query shape allows it.
func (db *DB) PatchTableScript(name, script string) (uint64, error) {
	if err := db.readOnlyErr(); err != nil {
		return 0, err
	}
	p, err := parser.ParsePatchString(script)
	if err != nil {
		return 0, err
	}
	return db.eng.PatchTable(name, p)
}

// DropTable removes the named table, reporting whether it existed. The
// error is non-nil only when the write-ahead log refused the mutation (the
// drop did not happen).
func (db *DB) DropTable(name string) (bool, error) {
	if err := db.readOnlyErr(); err != nil {
		return false, err
	}
	return db.eng.DropTable(name)
}

// CatalogVersion returns the current catalog version.
func (db *DB) CatalogVersion() uint64 { return db.eng.Catalog().Version() }

// Tables returns a consistent snapshot of the catalog: its version and the
// metadata of every table, sorted by name.
func (db *DB) Tables() (version uint64, infos []TableInfo) {
	snap := db.eng.Catalog().Snapshot()
	infos = make([]TableInfo, 0, snap.Len())
	for _, name := range snap.Names() {
		infos = append(infos, entryInfo(snap.Get(name)))
	}
	return snap.Version(), infos
}

// Table returns one table's metadata and rendering, and whether it exists.
func (db *DB) Table(name string) (info TableInfo, text string, ok bool) {
	e := db.eng.Catalog().Snapshot().Get(name)
	if e == nil {
		return TableInfo{}, "", false
	}
	return entryInfo(e), e.Table.String(), true
}

// Query prepares (or fetches from the plan cache) and executes one query.
func (db *DB) Query(req Request) (*Result, error) {
	return db.eng.Execute(req.internal())
}

// QueryBatch executes every request against a single catalog snapshot —
// the whole batch sees one consistent version, returned alongside the items
// — with the items running concurrently under the engine's bounded worker
// pool. Results come back in request order; failures are reported per item.
func (db *DB) QueryBatch(reqs []Request) ([]BatchItem, uint64) {
	internal := make([]engine.Request, len(reqs))
	for i, r := range reqs {
		internal[i] = r.internal()
	}
	return db.eng.ExecuteBatch(internal)
}

// Stats returns a snapshot of the engine's counters.
func (db *DB) Stats() Stats { return db.eng.Stats() }

// WriteMetrics renders every registered metric in the Prometheus text
// exposition format — query latency histograms (cold/warm), plan-cache and
// physical-operator counters, probcalc memo effectiveness, catalog and WAL
// instrumentation. It reports whether observability is enabled; when
// disabled nothing is written.
func (db *DB) WriteMetrics(w io.Writer) (bool, error) {
	if db.obs == nil {
		return false, nil
	}
	_, err := db.obs.Reg.WritePrometheus(w)
	return true, err
}

// SlowQueries returns the captured slow executions, most recent first, and
// the total ever captured (including ones evicted from the ring).
func (db *DB) SlowQueries() ([]SlowQuery, uint64) {
	if db.obs == nil {
		return nil, 0
	}
	return db.obs.Slow.Snapshot(), db.obs.Slow.Total()
}

// SlowQueryThreshold returns the capture threshold (0 when observability or
// capture is disabled).
func (db *DB) SlowQueryThreshold() time.Duration {
	if db.obs == nil {
		return 0
	}
	return db.obs.SlowThreshold
}
