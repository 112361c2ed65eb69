package parser

import (
	"math"
	"strings"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/value"
)

// ParsePatch reads the table-script row/dist syntax under delete/upsert/dist
// directives and produces a patch whose canonical rendering round-trips.
func TestParsePatch(t *testing.T) {
	p, err := ParsePatchString(`
# replace Alice's phys row, add two rows, give d a distribution
delete 'Alice', x | x = 'phys'
upsert 'Dana', 'math'
upsert 'Eve', y | y = 'chem'
dist d = {0:0.25, 1:0.75}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Deletes) != 1 || len(p.Upserts) != 2 || len(p.Dists) != 1 {
		t.Fatalf("parsed %d deletes, %d upserts, %d dists; want 1, 2, 1", len(p.Deletes), len(p.Upserts), len(p.Dists))
	}
	del := p.Deletes[0]
	if len(del.Terms) != 2 || del.Terms[0] != condition.Const(value.Str("Alice")) || del.Terms[1] != condition.Var("x") {
		t.Fatalf("delete terms = %v", del.Terms)
	}
	if del.Cond == nil {
		t.Fatalf("delete condition missing")
	}
	if up := p.Upserts[0]; up.Cond != nil || up.Terms[1] != condition.Const(value.Str("math")) {
		t.Fatalf("first upsert = %+v", up)
	}
	if p.Dists[0].Var != "d" {
		t.Fatalf("dist var = %q, want d", p.Dists[0].Var)
	}
	var total float64
	for _, o := range p.Dists[0].Dist.Outcomes() {
		total += o.P
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("dist mass = %g, want 1", total)
	}

	// The canonical rendering parses back to the same patch.
	checkPatchRoundTrip(t, p)
}

func TestParsePatchErrors(t *testing.T) {
	cases := []struct {
		name, script, wantErr string
	}{
		{"empty", "\n# only comments\n", "empty patch"},
		{"unknown directive", "insert 'Alice', 'x'", "unknown patch directive"},
		{"row without cells", "upsert | x = 1", "row has no cells"},
		{"bad condition", "delete 'A' | x =", "unexpected"},
		{"bad dist", "dist d = {}", "empty distribution"},
		{"dist mass", "dist d = {0:0.5, 1:0.2}", "sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePatchString(tc.script)
			if err == nil {
				t.Fatalf("no error for %q", tc.script)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
