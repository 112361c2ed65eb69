package parser

import (
	"fmt"
	"io"
	"strings"

	"uncertaindb/internal/pctable"
)

// ParsePatch reads a patch script: row-level mutations of one table in the
// same row and distribution syntax the table scripts use, one directive per
// line. Blank lines and "#" comments are skipped.
//
//	delete 'Alice', x | x = 'phys'
//	upsert 'Dana', 'math'
//	dist d = {0: 0.5, 1: 0.5}
//
// The target table is not named in the script — it comes from context (the
// URL of a PATCH request, or an API argument) — so rows carry no declared
// arity; wal.ApplyPatchToTable validates every row against the table's arity
// at apply time. Deletes match by row identity (exact terms and condition),
// upserts append rows not already present, and dist attaches a distribution
// to a variable that has none yet.
func ParsePatch(r io.Reader) (*pctable.Patch, error) {
	p := &pctable.Patch{}
	lx := &lexer{}
	err := eachDirective(r, func(_ int, word, rest string) error {
		switch strings.ToLower(word) {
		case "delete", "upsert":
			terms, cond, err := parseRow(lx, rest, -1)
			if err != nil {
				return err
			}
			if row := (pctable.PatchRow{Terms: terms, Cond: cond}); strings.EqualFold(word, "delete") {
				p.Deletes = append(p.Deletes, row)
			} else {
				p.Upserts = append(p.Upserts, row)
			}
		case "dist":
			varName, space, err := parseDist(lx, rest)
			if err != nil {
				return err
			}
			p.Dists = append(p.Dists, pctable.DistPatch{Var: varName, Dist: space})
		default:
			return fmt.Errorf("unknown patch directive %q (want delete, upsert, or dist)", word)
		}
		return nil
	})
	if err == nil && len(p.Deletes)+len(p.Upserts)+len(p.Dists) == 0 {
		err = fmt.Errorf("parser: empty patch (no delete, upsert, or dist directives)")
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ParsePatchString is ParsePatch over a string.
func ParsePatchString(s string) (*pctable.Patch, error) { return ParsePatch(strings.NewReader(s)) }
