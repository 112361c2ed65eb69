package uncertain

import (
	"context"
	"errors"

	"uncertaindb/internal/catalog"
)

// errResync signals the subscription loop lost its change-feed watcher (the
// consumer lagged, or the catalog was reset under it) and must re-execute and
// re-subscribe from the current version.
var errResync = errors.New("uncertain: subscription watcher lost")

// Subscribe executes the request and pushes the result, then keeps the query
// live: every catalog mutation touching a table the query reads triggers a
// re-execution (which catches the cached plan up incrementally wherever the
// mutation was a patch the engine can propagate) and a push of the
// fresh result. Mutations of unrelated tables push nothing; a burst of
// queued mutations is coalesced into one re-execution.
//
// Subscribe blocks until ctx is cancelled (returning ctx.Err()), push
// returns a non-nil error (returned verbatim — a sentinel error is the
// clean way to stop after N updates), or an execution fails (for example the
// subscribed table was dropped). It works on followers too: the local
// change feed fires as replicated mutations apply.
func (db *DB) Subscribe(ctx context.Context, req Request, push func(*Result) error) error {
	for {
		res, err := db.Query(req)
		if err != nil {
			return err
		}
		if err := push(res); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		w, err := db.eng.Catalog().Watch(res.CatalogVersion)
		if err != nil {
			if errors.Is(err, ErrCompacted) || errors.Is(err, ErrFutureVersion) {
				// The catalog moved (or was reset) between the execution and
				// the watch; re-execute against its current state.
				continue
			}
			return err
		}
		relevant := make(map[string]bool, len(res.Tables))
		for _, t := range res.Tables {
			relevant[t] = true
		}
		err = db.subscribeLoop(ctx, w, relevant, req, push)
		w.Close()
		if !errors.Is(err, errResync) {
			return err
		}
	}
}

// subscribeLoop pushes re-executions until the context ends, push declines,
// or the watcher dies (errResync — the caller re-subscribes from scratch).
func (db *DB) subscribeLoop(ctx context.Context, w *catalog.Watcher, relevant map[string]bool, req Request, push func(*Result) error) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case rec, ok := <-w.C():
			if !ok {
				return errResync
			}
			hit := relevant[rec.Name]
			// Coalesce the backlog: one re-execution covers every queued
			// mutation (the engine snapshot sees them all).
			drained := false
			for !drained {
				select {
				case rec2, ok := <-w.C():
					if !ok {
						return errResync
					}
					hit = hit || relevant[rec2.Name]
				default:
					drained = true
				}
			}
			if !hit {
				continue
			}
			res, err := db.Query(req)
			if err != nil {
				return err
			}
			if err := push(res); err != nil {
				return err
			}
		}
	}
}
