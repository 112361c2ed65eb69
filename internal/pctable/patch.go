package pctable

import (
	"uncertaindb/internal/condition"
	"uncertaindb/internal/prob"
)

// PatchRow is one row of a patch: the terms and condition of a c-table row.
// Row identity is the exact term/condition trees (wal.RowKey): two rows are
// the same row exactly when their trees are identical, the same syntactic
// identity the rest of the system uses for byte-identical determinism.
type PatchRow struct {
	Terms []condition.Term
	Cond  condition.Condition
}

// DistPatch attaches a distribution to a variable that has none yet. A patch
// may only add distributions: changing an existing one would silently
// invalidate every memoized marginal computed against it, so that requires a
// full table replacement.
type DistPatch struct {
	Var  string
	Dist *prob.Space
}

// Patch is a row-level mutation of one table: deletes and upserts keyed by
// row identity, plus distributions for new variables. Application order is
// deletes first (every row whose identity matches any delete key is removed;
// survivors keep their relative order), then upserts in patch order (a row
// whose identity is already present is a no-op, otherwise it is appended at
// the tail), then distributions. The order makes "replace row r" expressible
// as delete r + upsert r', and keeps an insert-only patch a pure tail append
// — the shape the engine's delta propagation exploits.
type Patch struct {
	Deletes []PatchRow
	Upserts []PatchRow
	Dists   []DistPatch
}

// InsertOnly reports whether the patch can only append rows: no deletes and
// no distribution changes.
func (p *Patch) InsertOnly() bool { return len(p.Deletes) == 0 && len(p.Dists) == 0 }
