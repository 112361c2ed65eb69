package uncertain_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"uncertaindb/internal/parser"
	"uncertaindb/pkg/uncertain"
)

// truncateTail chops n bytes off the end of the file, simulating a torn
// final write.
func truncateTail(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() < n {
		return fmt.Errorf("file %s too short to tear", path)
	}
	return os.Truncate(path, fi.Size()-n)
}

// openDurable opens a DB over dir and fails the test on error.
func openDurable(t *testing.T, dir string, cfg uncertain.Config) *uncertain.DB {
	t.Helper()
	cfg.DataDir = dir
	db, err := uncertain.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// A durable DB recovers across restart with the catalog version, every
// per-table version, the table renderings and the query answers all
// identical — the engine's plan-cache keys (name@version) survive a restart
// unchanged.
func TestDurableRestartPreservesCatalog(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, uncertain.Config{})
	if _, _, err := db.PutTableScript(takesScript); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.PutTableScript(plainScript); err != nil {
		t.Fatal(err)
	}
	// Replace Takes so its entry version differs from its first write.
	if _, _, err := db.PutTableScript(takesScript); err != nil {
		t.Fatal(err)
	}
	wantVersion, wantInfos := db.Tables()
	_, wantText, _ := db.Table("Takes")
	res, err := db.Query(uncertain.Request{Query: "project[1](select[$2 = 'phys'](Takes))"})
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers, _ := json.Marshal(res.Tuples)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, uncertain.Config{})
	defer db2.Close()
	gotVersion, gotInfos := db2.Tables()
	if gotVersion != wantVersion {
		t.Fatalf("recovered catalog version %d, want %d", gotVersion, wantVersion)
	}
	if len(gotInfos) != len(wantInfos) {
		t.Fatalf("recovered %d tables, want %d", len(gotInfos), len(wantInfos))
	}
	for i := range wantInfos {
		if gotInfos[i] != wantInfos[i] {
			t.Fatalf("table %d metadata %+v, want %+v", i, gotInfos[i], wantInfos[i])
		}
	}
	if _, gotText, ok := db2.Table("Takes"); !ok || gotText != wantText {
		t.Fatalf("recovered rendering of Takes differs:\n%s\nvs\n%s", gotText, wantText)
	}
	res2, err := db2.Query(uncertain.Request{Query: "project[1](select[$2 = 'phys'](Takes))"})
	if err != nil {
		t.Fatal(err)
	}
	gotAnswers, _ := json.Marshal(res2.Tuples)
	if string(gotAnswers) != string(wantAnswers) {
		t.Fatalf("recovered answers differ: %s vs %s", gotAnswers, wantAnswers)
	}

	// Mutations continue the version chain after restart.
	if ok, err := db2.DropTable("S"); err != nil || !ok {
		t.Fatalf("DropTable(S) after restart = %v, %v", ok, err)
	}
	if got := db2.CatalogVersion(); got != wantVersion+1 {
		t.Fatalf("version after post-restart drop = %d, want %d", got, wantVersion+1)
	}
}

// Drops are as durable as puts: a table dropped before restart must stay
// gone after it.
func TestDurableRestartPreservesDrop(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, uncertain.Config{})
	if _, _, err := db.PutTableScript(takesScript); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.PutTableScript(plainScript); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.DropTable("Takes"); err != nil || !ok {
		t.Fatalf("DropTable = %v, %v", ok, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, uncertain.Config{})
	defer db2.Close()
	if _, _, ok := db2.Table("Takes"); ok {
		t.Fatal("dropped table resurrected by recovery")
	}
	if _, _, ok := db2.Table("S"); !ok {
		t.Fatal("surviving table lost by recovery")
	}
	if got := db2.CatalogVersion(); got != 3 {
		t.Fatalf("recovered version %d, want 3", got)
	}
}

func TestChangesFeed(t *testing.T) {
	db := uncertain.MustOpen(uncertain.Config{})
	defer db.Close()
	if _, _, err := db.PutTableScript(takesScript); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.PutTableScript(plainScript); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DropTable("S"); err != nil {
		t.Fatal(err)
	}

	changes, version, err := db.Changes(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != 3 || len(changes) != 3 {
		t.Fatalf("Changes(0) = %d records at version %d, want 3 at 3", len(changes), version)
	}
	if changes[0].Kind != "put" || changes[0].Name != "Takes" || changes[0].Version != 1 {
		t.Fatalf("changes[0] = %+v, want put Takes at v1", changes[0])
	}
	if changes[2].Kind != "delete" || changes[2].Name != "S" || len(changes[2].Table) != 0 {
		t.Fatalf("changes[2] = %+v, want a bare delete of S", changes[2])
	}
	// The put payload is the table's canonical script: a replica can parse
	// and re-render it exactly.
	pt, err := parser.ParseTableString(changes[0].Table)
	if err != nil {
		t.Fatalf("change payload does not parse: %v", err)
	}
	if got := parser.Script(pt.Name, pt.PCTable); got != changes[0].Table {
		t.Fatalf("parsed payload renders differently:\n%s\nvs\n%s", got, changes[0].Table)
	}

	// A limited page returns a prefix; the next page continues it.
	page, _, err := db.Changes(context.Background(), 0, 2, 0)
	if err != nil || len(page) != 2 || page[1].Version != 2 {
		t.Fatalf("limited page = %+v, %v; want versions 1, 2", page, err)
	}
	page2, _, err := db.Changes(context.Background(), page[1].Version, 2, 0)
	if err != nil || len(page2) != 1 || page2[0].Version != 3 {
		t.Fatalf("second page = %+v, %v; want just version 3", page2, err)
	}

	// From the head: nothing yet, and a bounded wait returns empty.
	start := time.Now()
	head, _, err := db.Changes(context.Background(), version, 0, 50*time.Millisecond)
	if err != nil || len(head) != 0 {
		t.Fatalf("Changes at head = %+v, %v; want empty", head, err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("head read returned before the long-poll window elapsed")
	}

	// Long-poll: a concurrent mutation wakes the waiter.
	got := make(chan []uncertain.Change, 1)
	go func() {
		changes, _, _ := db.Changes(context.Background(), version, 0, 5*time.Second)
		got <- changes
	}()
	time.Sleep(20 * time.Millisecond)
	if _, _, err := db.PutTableScript(plainScript); err != nil {
		t.Fatal(err)
	}
	select {
	case changes := <-got:
		if len(changes) != 1 || changes[0].Version != version+1 {
			t.Fatalf("long-poll delivered %+v, want the v%d put", changes, version+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke up")
	}
}

// After compaction and restart, history before the snapshot is gone for
// good: the feed must answer ErrCompacted, and resuming from the snapshot
// version must work.
func TestChangesCompactedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, uncertain.Config{SnapshotEvery: 2})
	for i := 0; i < 4; i++ {
		if _, _, err := db.PutTableScript(takesScript); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, uncertain.Config{SnapshotEvery: 2})
	defer db2.Close()
	if _, _, err := db2.Changes(context.Background(), 0, 0, 0); !errors.Is(err, uncertain.ErrCompacted) {
		t.Fatalf("Changes(0) after compaction: err = %v, want ErrCompacted", err)
	}
	version := db2.CatalogVersion()
	if changes, _, err := db2.Changes(context.Background(), version, 0, 0); err != nil || len(changes) != 0 {
		t.Fatalf("Changes(head) after restart = %+v, %v; want empty, nil", changes, err)
	}
}

// Open must recover, not fail, when the final record is torn — the normal
// crash case — and the recovered catalog must serve queries.
func TestDurableOpenAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, uncertain.Config{})
	if _, _, err := db.PutTableScript(takesScript); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.PutTableScript(plainScript); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record by chopping bytes off the log.
	if err := truncateTail(dir+"/wal.log", 5); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, uncertain.Config{})
	defer db2.Close()
	if got := db2.CatalogVersion(); got != 1 {
		t.Fatalf("recovered version %d, want 1 (torn second record discarded)", got)
	}
	if _, err := db2.Query(uncertain.Request{Query: "project[1](Takes)"}); err != nil {
		t.Fatalf("query after torn-tail recovery: %v", err)
	}
	if _, _, ok := db2.Table("S"); ok {
		t.Fatal("torn record partially applied: table S exists")
	}
}
