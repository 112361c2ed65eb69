package uncertain

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"uncertaindb/internal/replica"
	"uncertaindb/internal/wal"
)

// ErrReadOnly reports a mutation attempted on a follower. Followers
// replicate the leader's catalog verbatim; a local write would fork history
// and break the byte-identical replication invariant, so every mutation is
// refused with a pointer at the leader (HTTP layers map it to 403 with a
// Location header).
var ErrReadOnly = fmt.Errorf("uncertain: database is a read-only follower")

// ReplicationStatus is a point-in-time view of a follower's replication
// state: the leader URL, applied and leader-observed catalog versions, and
// resync/backoff counters.
type ReplicationStatus = replica.Status

// readOnlyErr returns the refusal for mutations on a follower, nil
// otherwise.
func (db *DB) readOnlyErr() error {
	if db.follower == nil {
		return nil
	}
	return fmt.Errorf("%w (leader at %s)", ErrReadOnly, db.follower.Leader())
}

// ReadOnly reports whether the database is a follower (mutations refused).
func (db *DB) ReadOnly() bool { return db.follower != nil }

// Leader returns the followed leader's base URL ("" when this database is
// not a follower).
func (db *DB) Leader() string {
	if db.follower == nil {
		return ""
	}
	return db.follower.Leader()
}

// Replication returns the follower's replication status; ok is false when
// this database is not a follower.
func (db *DB) Replication() (st ReplicationStatus, ok bool) {
	if db.follower == nil {
		return ReplicationStatus{}, false
	}
	return db.follower.Status(), true
}

// MaxFreshnessWait caps how long AwaitCatalogVersion waits. A follower
// applies a leader mutation within about 2 ms at p99 (E19); one that is
// further behind refuses within this bound, and the client reads elsewhere.
const MaxFreshnessWait = 50 * time.Millisecond

// ErrStale reports a node still behind a read's demanded catalog version
// after MaxFreshnessWait: HTTP 409 with a Location at the leader on a
// follower, 412 on the leader, which never acknowledged that version.
var ErrStale = errors.New("uncertain: catalog is behind the demanded version")

// AwaitCatalogVersion is a read's freshness check (read-your-writes: demand
// is the version a write acknowledged). Until the catalog reaches demand it
// waits on the change feed, which a replicated mutation or a follower
// resync wakes, for at most MaxFreshnessWait or until ctx ends. It returns
// the version it saw last, with ErrStale when that is still below demand.
func (db *DB) AwaitCatalogVersion(ctx context.Context, demand uint64) (uint64, error) {
	cat := db.eng.Catalog()
	v := cat.Version()
	if v < demand {
		ctx, cancel := context.WithTimeout(ctx, MaxFreshnessWait)
		defer cancel()
		for v < demand && ctx.Err() == nil {
			if w, err := cat.Watch(v); err == nil { // else the catalog moved since v
				select {
				case <-w.C(): // a mutation, or a feed closed by a lag or a resync
				case <-ctx.Done():
				}
				w.Close()
			}
			v = cat.Version()
		}
	}
	if v < demand {
		return v, fmt.Errorf("%w: %d demanded, this node is at %d", ErrStale, demand, v)
	}
	return v, nil
}

// SnapshotBytes exports the catalog in its canonical snapshot form
// (wal.EncodeState): the byte string a follower bootstraps from, and the
// one byte-identical across leader and followers at equal versions. The
// returned CRC (wal.Checksum over the whole payload) lets transports verify
// integrity end to end.
func (db *DB) SnapshotBytes() (data []byte, version uint64, crc uint32) {
	st := db.eng.Catalog().State()
	data = wal.EncodeState(st)
	return data, st.Version, wal.Checksum(data)
}

// openFollower wires a DB as a read replica: synchronous snapshot bootstrap
// from the leader (Open fails fast on an unreachable or corrupt leader),
// then a background loop tailing the change feed. The catalog, per-entry
// versions and plan-cache keys come over exactly as the leader's.
func (db *DB) openFollower(cfg Config) error {
	if cfg.DataDir != "" {
		return fmt.Errorf("uncertain: Follow and DataDir are mutually exclusive (the leader owns the durable history)")
	}
	client := replica.NewClient(cfg.Follow, cfg.FollowClient)
	f := replica.NewFollower(db.eng, client, replica.FollowerOptions{Obs: db.obs})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Bootstrap(ctx); err != nil {
		return fmt.Errorf("uncertain: bootstrapping from leader %s: %w", cfg.Follow, err)
	}
	f.Start()
	db.follower = f
	return nil
}

// Feed is a typed consumer of a remote uncertaind's change feed: the same
// records DB.Changes serves locally, fetched over HTTP. A 410 Gone from the
// server (requested versions compacted away) surfaces as ErrCompacted —
// classify with errors.Is, exactly as against a local DB; no string
// matching.
type Feed struct {
	c *replica.Client
}

// NewFeed returns a feed consumer for the uncertaind at base (e.g.
// "http://127.0.0.1:8080"). hc may be nil for a default transport.
func NewFeed(base string, hc *http.Client) *Feed {
	return &Feed{c: replica.NewClient(base, hc)}
}

// Changes fetches the remote catalog's mutations after version from —
// the HTTP form of DB.Changes, with the same ErrCompacted contract. Each
// change additionally carries the leader's commit wall-clock time when the
// leader still knows it.
func (f *Feed) Changes(ctx context.Context, from uint64, limit int, wait time.Duration) ([]Change, uint64, error) {
	page, err := f.c.Changes(ctx, from, limit, wait)
	if err != nil {
		return nil, 0, err
	}
	return page.Changes, page.CatalogVersion, nil
}
