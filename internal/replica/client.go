// Package replica is the scale-out serving subsystem: read replicas that
// tail a leader uncertaind's catalog change feed (the query router that fans
// reads out across them is internal/router).
//
// The paper's c-table semantics make replication correctness checkable to
// the byte: a catalog is a deterministic function of its mutation history
// (the house invariant internal/wal enforces), so a follower that has
// applied the same prefix of the leader's history must hold a catalog whose
// canonical encoding (wal.EncodeState) is byte-identical to the leader's at
// that version — and therefore return byte-identical answers and
// bit-identical big.Rat marginals. The replication protocol needs no
// conflict resolution, no quorum, no merge: it is "ship the log", and the
// tests hold it to exact equality rather than convergence.
//
// Three parts:
//
//   - Client: the HTTP consumer of a leader's /v1/snapshot and /v1/changes
//     endpoints, with typed compaction errors and per-request timeouts.
//   - Follower: bootstraps an engine's catalog from the leader's snapshot,
//     then tails the change feed, applying records through the catalog's
//     versioned apply path so plan-cache keys match the leader's; on
//     compacted history (HTTP 410) it re-bootstraps, with jittered
//     exponential backoff on every failure.
//   - Router: health-checks a static replica set and fans /v1/query and
//     /v1/query/batch out with least-outstanding-requests balancing,
//     enforcing a client-supplied minimum catalog version (read-your-writes)
//     with bounded retries and leader fallthrough.
package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"uncertaindb/internal/wal"
)

// ErrCompacted is the typed form of the leader's HTTP 410 Gone: the
// requested change-feed versions predate the leader's retained history, and
// the consumer must re-sync from a snapshot. It is the same sentinel the
// catalog and WAL layers use, so errors.Is works across process boundaries.
var ErrCompacted = wal.ErrCompacted

// Client is an HTTP client for one leader's replication surface. Safe for
// concurrent use.
type Client struct {
	base string       // leader base URL, no trailing slash
	hc   *http.Client // transport; per-request deadlines are layered on top
	// timeout bounds every request beyond its long-poll wait; it keeps a
	// hung leader from wedging the follower loop.
	timeout time.Duration
}

// NewClient returns a client for the leader at base (e.g.
// "http://127.0.0.1:8080"). hc may be nil for a default transport; every
// request carries a deadline regardless.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc, timeout: 15 * time.Second}
}

// Base returns the leader base URL.
func (c *Client) Base() string { return c.base }

// Change is one change-feed record as shipped over HTTP. Table is the put
// table's canonical script and Patch the patch's script (internal/parser
// reads both); CommittedUnixNano is the leader's wall-clock commit time (0
// when the leader no longer knows it, e.g. records replayed from its WAL
// after a restart, or applied by replication) — replication lag is computed
// from it.
type Change struct {
	Version           uint64 `json:"version"`
	Kind              string `json:"kind"`
	Name              string `json:"name"`
	Probabilistic     bool   `json:"probabilistic,omitempty"`
	Table             string `json:"table,omitempty"`
	Patch             string `json:"patch,omitempty"`
	CommittedUnixNano int64  `json:"committedUnixNano,omitempty"`
}

// Record parses the change into the wal.Record the catalog apply path
// consumes. A change is a log record split into fields, so it is read back
// by the log's own decoder.
func (ch *Change) Record() (*wal.Record, error) {
	rec, err := wal.DecodeRecord(fmt.Appendf(nil, "%s %d %s %t\n%s%s", ch.Kind, ch.Version, ch.Name, ch.Probabilistic, ch.Table, ch.Patch))
	if err != nil {
		return nil, fmt.Errorf("replica: change v%d %s of %s: %w", ch.Version, ch.Kind, ch.Name, err)
	}
	return rec, nil
}

// ChangesPage is one /v1/changes response.
type ChangesPage struct {
	From           uint64 `json:"from"`
	CatalogVersion uint64 `json:"catalogVersion"`
	// WaitMs is the effective long-poll wait applied to this request after
	// capping — clients asking for more learn the real bound instead of
	// silently getting less.
	WaitMs  int64    `json:"waitMs"`
	Changes []Change `json:"changes"`
}

// Changes fetches the leader's mutations after version from, long-polling up
// to wait when the feed is at the head. HTTP 410 Gone (compacted history)
// comes back wrapping ErrCompacted, so the resync path and external
// consumers classify it with errors.Is instead of string-matching status
// text.
func (c *Client) Changes(ctx context.Context, from uint64, limit int, wait time.Duration) (*ChangesPage, error) {
	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if wait > 0 {
		q.Set("wait_ms", strconv.FormatInt(wait.Milliseconds(), 10))
	}
	// The deadline must outlast the long-poll window, or every idle poll
	// would look like a leader failure.
	ctx, cancel := context.WithTimeout(ctx, wait+c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/changes?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: changes from %s: %w", c.base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("replica: reading changes from %s: %w", c.base, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return nil, fmt.Errorf("%w (leader %s retains nothing after version %d)", ErrCompacted, c.base, from)
	default:
		return nil, fmt.Errorf("replica: changes from %s: HTTP %d: %s", c.base, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var page ChangesPage
	if err := json.Unmarshal(body, &page); err != nil {
		return nil, fmt.Errorf("replica: decoding changes from %s: %w", c.base, err)
	}
	return &page, nil
}

// Snapshot fetches the leader's full catalog state from /v1/snapshot: the
// canonical wal.EncodeState bytes (a header plus the catalog script of every
// table), verified against the whole-payload CRC the leader stamps in
// X-Snapshot-Crc32 before parsing. The returned state owns its tables.
func (c *Client) Snapshot(ctx context.Context) (*wal.State, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: snapshot from %s: %w", c.base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return nil, fmt.Errorf("replica: reading snapshot from %s: %w", c.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica: snapshot from %s: HTTP %d: %s", c.base, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if want := resp.Header.Get("X-Snapshot-Crc32"); want != "" {
		sum, err := strconv.ParseUint(want, 16, 32)
		if err != nil {
			return nil, fmt.Errorf("replica: snapshot from %s: bad X-Snapshot-Crc32 %q", c.base, want)
		}
		if got := wal.Checksum(body); got != uint32(sum) {
			return nil, fmt.Errorf("replica: snapshot from %s: CRC mismatch (got %08x, want %08x)", c.base, got, uint32(sum))
		}
	}
	st, err := wal.DecodeState(body)
	if err != nil {
		return nil, fmt.Errorf("replica: decoding snapshot from %s: %w", c.base, err)
	}
	return st, nil
}

// backoff produces jittered exponential delays: base·2ⁿ scaled by a uniform
// [0.5, 1.5) factor, capped at max. The jitter keeps a fleet of followers
// that lost the same leader from re-polling in lockstep.
type backoff struct {
	base, max time.Duration
	attempt   int

	mu  sync.Mutex
	rng *rand.Rand
}

func newBackoff(base, max time.Duration, seed int64) *backoff {
	return &backoff{base: base, max: max, rng: rand.New(rand.NewSource(seed))}
}

// next returns the delay for the current attempt and advances the counter.
func (b *backoff) next() time.Duration {
	d := b.base << min(b.attempt, 20)
	if d > b.max || d <= 0 {
		d = b.max
	}
	b.attempt++
	b.mu.Lock()
	f := 0.5 + b.rng.Float64()
	b.mu.Unlock()
	j := time.Duration(float64(d) * f)
	if j > b.max {
		j = b.max
	}
	return j
}

// reset clears the attempt counter after a success.
func (b *backoff) reset() { b.attempt = 0 }
