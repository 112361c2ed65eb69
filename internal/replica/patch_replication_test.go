package replica_test

// Patch replication acceptance: row-level patches ship over the change feed
// as deltas (never whole tables), followers re-apply them through the same
// maintenance path as the leader — keeping warm plan caches instead of
// invalidating them — and the byte-identical replication invariant holds at
// every patched version. The router forwards PATCH to the leader, so a
// client pointed at the fleet's front door can mutate without knowing the
// topology.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"uncertaindb/internal/router"
	"uncertaindb/pkg/uncertain"
)

func patchScript(t *testing.T, db *uncertain.DB, name, script string) uint64 {
	t.Helper()
	v, err := db.PatchTableScript(name, script)
	if err != nil {
		t.Fatalf("patch %s: %v", name, err)
	}
	return v
}

// TestPatchReplication drives a leader and follower through a patch history —
// insert-only upserts, a conditioned delete, a new distribution — asserting
// byte-identical state and answers at every version, and that the follower's
// warm plans were maintained rather than recompiled.
func TestPatchReplication(t *testing.T) {
	leaderDB, leaderSrv := startNode(t, uncertain.Config{})
	fDB, fSrv := startNode(t, uncertain.Config{Follow: leaderSrv.URL})

	v := putScript(t, leaderDB, takesV1)
	waitVersion(t, fDB, v)

	// Warm both plan caches so the patches below have something to maintain.
	const query = "project[1](Takes)"
	assertEqualAnswers(t, query, leaderSrv, fSrv)

	// Insert-only patch: the cheapest maintenance shape (delta append).
	v = patchScript(t, leaderDB, "Takes", "upsert 'Dana', 'math'\n")
	waitVersion(t, fDB, v)
	assertEqualState(t, leaderDB, fDB, "patch/insert-only")
	assertEqualAnswers(t, query, leaderSrv, fSrv)

	// Deleting a conditioned row (Bob's) is not insert-only; followers must
	// take the same re-evaluation path the leader does and stay identical.
	v = patchScript(t, leaderDB, "Takes", "delete 'Bob', x | x = 'phys' || x = 'chem'\n")
	waitVersion(t, fDB, v)
	assertEqualState(t, leaderDB, fDB, "patch/delete")
	assertEqualAnswers(t, query, leaderSrv, fSrv)

	// A patch introducing a fresh variable and its distribution.
	v = patchScript(t, leaderDB, "Takes", "upsert 'Eve', y\ndist y = {'math':0.5, 'phys':0.5}\n")
	waitVersion(t, fDB, v)
	assertEqualState(t, leaderDB, fDB, "patch/dist")
	assertEqualAnswers(t, query, leaderSrv, fSrv)

	// The follower applied patches through the maintenance path, not by
	// recompiling from scratch on every change.
	st := fDB.Stats()
	if st.Maintenance.PatchesApplied != 3 {
		t.Errorf("follower patchesApplied = %d, want 3", st.Maintenance.PatchesApplied)
	}
	if st.Maintenance.PlansMaintained == 0 {
		t.Errorf("follower maintained no plans: %+v", st.Maintenance)
	}

	// A fresh follower bootstrapping after the patch history lands on the
	// same bytes: patches fold into the canonical snapshot.
	lateDB, _ := startNode(t, uncertain.Config{Follow: leaderSrv.URL})
	waitVersion(t, lateDB, v)
	assertEqualState(t, leaderDB, lateDB, "patch/late-bootstrap")

	// PATCH on a follower is refused like every mutation: typed error via the
	// facade, 403 + Location over HTTP.
	if _, err := fDB.PatchTableScript("Takes", "upsert 'Zed', 'math'\n"); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower patch: got %v, want read-only refusal", err)
	}
	req, _ := http.NewRequest(http.MethodPatch, fSrv.URL+"/v1/tables/Takes", strings.NewReader("upsert 'Zed', 'math'\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PATCH on follower: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("PATCH on follower: status %d, want 403", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != leaderSrv.URL+"/v1/tables/Takes" {
		t.Fatalf("PATCH on follower: Location %q, want %q", loc, leaderSrv.URL+"/v1/tables/Takes")
	}
}

// TestUnusedDistSurvivesSnapshot: a distribution declared for a variable no
// row mentions yet must survive compaction and snapshot bootstrap, because a
// later patch row may use it. A follower bootstrapped from the compacted
// state and the leader restarted from its snapshot plus log tail must both
// answer the patched row's query with the right marginals and hold the same
// canonical bytes.
func TestUnusedDistSurvivesSnapshot(t *testing.T) {
	leaderCfg := uncertain.Config{DataDir: t.TempDir(), SnapshotEvery: 2}
	leaderDB, leaderSrv := startNode(t, leaderCfg)
	putScript(t, leaderDB, takesV1+"dist u = {'art':0.25, 'law':0.75}\n")
	v := putScript(t, leaderDB, gradesV1) // the second mutation compacts
	fDB, fSrv := startNode(t, uncertain.Config{Follow: leaderSrv.URL})
	waitVersion(t, fDB, v)

	v = patchScript(t, leaderDB, "Takes", "upsert 'Eve', u\n")
	waitVersion(t, fDB, v)
	const query = "project[2](select[$1 = 'Eve'](Takes))"
	want := map[string]float64{"[art]": 0.25, "[law]": 0.75}
	assertMarginals(t, fSrv, query, want)
	assertEqualState(t, leaderDB, fDB, "follower")

	// Stop the follower's long poll, then restart the leader over its data
	// directory: it recovers from the compacted snapshot plus the logged patch.
	fDB.Close()
	leaderSrv.Close()
	leaderDB.Close()
	restartedDB, restartedSrv := startNode(t, leaderCfg)
	assertMarginals(t, restartedSrv, query, want)
	assertEqualState(t, restartedDB, fDB, "restarted leader")
}

// assertMarginals posts query and compares its tuple marginals, keyed by the
// tuple rendered with fmt, against want.
func assertMarginals(t *testing.T, srv *httptest.Server, query string, want map[string]float64) {
	t.Helper()
	got := make(map[string]float64)
	for _, tp := range queryBody(t, srv, query)["tuples"].([]any) {
		m := tp.(map[string]any)
		got[fmt.Sprint(m["tuple"])] = m["p"].(float64)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: marginals %v, want %v", query, got, want)
	}
}

// TestRouterPatchProxy sends PATCH through the router's front door: it must
// proxy to the leader, mutate there, and the replica set converges.
func TestRouterPatchProxy(t *testing.T) {
	leaderDB, leaderSrv := startNode(t, uncertain.Config{})
	fDB, fSrv := startNode(t, uncertain.Config{Follow: leaderSrv.URL})

	v := putScript(t, leaderDB, takesV1)
	waitVersion(t, fDB, v)

	rt, err := router.New(router.Options{Leader: leaderSrv.URL, Replicas: []string{fSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(routerSrv.Close)

	req, err := http.NewRequest(http.MethodPatch, routerSrv.URL+"/v1/tables/Takes",
		strings.NewReader("upsert 'Dana', 'math'\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PATCH via router: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH via router: status %d, want 200", resp.StatusCode)
	}
	if got := leaderDB.CatalogVersion(); got != v+1 {
		t.Fatalf("leader at version %d after routed PATCH, want %d", got, v+1)
	}
	waitVersion(t, fDB, v+1)
	assertEqualState(t, leaderDB, fDB, "router-patch")
	assertEqualAnswers(t, "project[1](Takes)", leaderSrv, fSrv)
}
