// Package wal implements durability for the catalog: an append-only,
// checksummed, length-prefixed log of catalog mutations, periodic compacted
// snapshots, and crash recovery that loads the latest valid snapshot and
// replays the WAL tail, discarding a torn final record.
//
// Tables and patches are persisted in one form only: the canonical table and
// patch scripts of internal/parser, the same text PUT and PATCH accept. A
// log record is one text header line ("put <version> <name> <probabilistic>",
// "patch ..." or "delete <version> <name>") followed, for a put, by the
// table's script and, for a patch, by the patch's script. A snapshot is a
// header line ("snapshot <version> <tables>"), one line per table ("<name>
// <version> <probabilistic>") and the catalog script of every table in name
// order, between a binary magic and a closing CRC-32.
//
// The house invariant of this codebase is byte-identical determinism at
// every layer, and persistence is held to the same bar: the scripts are a
// pure function of the state — table names sorted, variables sorted, domain
// values and distribution outcomes in the canonical value order,
// probabilities in the shortest decimal that parses back to the same
// float64 — so snapshot → recover → re-snapshot reproduces the exact bytes,
// and replaying any valid prefix of the log reproduces the exact catalog
// observed at that version. The crash-injection and golden-replay tests in
// this package assert both.
//
// Layout of a data directory (Store):
//
//	wal.log               framed mutation records since the last snapshot
//	snap-<version>.snap   canonical catalog snapshot at <version>
//
// The log and every snapshot start with a magic whose last byte is the
// format version. A directory written in another format version is refused
// with ErrFormat and left untouched. Within the current format, the first
// record whose frame is incomplete, fails its CRC, does not parse, or does
// not extend the version chain is the torn tail: it and everything after it
// are discarded (and truncated from the log when the store opens). Every
// decoder in this package is total: arbitrary bytes never panic, they
// produce an error (FuzzWALDecode locks this down).
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
)

// ErrCorrupt reports bytes that are not a valid encoding. Recovery treats a
// corrupt record as the torn tail of the log: it and everything after it are
// discarded.
var ErrCorrupt = errors.New("wal: corrupt encoding")

// ErrFormat reports a log or snapshot written in another format version.
// Open refuses such a directory rather than read it as corrupt and recover
// an older state from it; its files are left as they are.
var ErrFormat = errors.New("wal: unsupported format version")

// ErrCompacted reports a change-feed request for versions that predate the
// oldest retained record; the consumer must re-sync from a snapshot (list
// the tables) and watch again from the current version.
var ErrCompacted = errors.New("wal: requested versions have been compacted")

// Kind discriminates mutation records.
type Kind byte

const (
	// KindPut registers or replaces a table.
	KindPut Kind = 1
	// KindDelete drops a table.
	KindDelete Kind = 2
	// KindPatch mutates rows of an existing table in place: deletes and
	// upserts keyed by canonical row identity, plus add-only distributions
	// (see Patch). Unlike KindPut it preserves what did not change, which is
	// what lets the engine maintain cached plans instead of discarding them.
	KindPatch Kind = 3
)

// String renders the kind for feeds and logs.
func (k Kind) String() string {
	switch k {
	case KindPut:
		return "put"
	case KindDelete:
		return "delete"
	case KindPatch:
		return "patch"
	default:
		return fmt.Sprintf("Kind(%d)", byte(k))
	}
}

// Record is one catalog mutation. Version is the catalog version after the
// mutation applied; versions are contiguous, so a log is a chain
// v+1, v+2, ... on top of the state at version v.
type Record struct {
	Kind    Kind
	Version uint64
	Name    string
	// Probabilistic is set on KindPut and KindPatch records: whether the
	// table (after the mutation) has distributions for all its variables.
	// Table is set on KindPut records only; it is shared and must not be
	// mutated.
	Probabilistic bool
	Table         *pctable.PCTable
	// Patch is set on KindPatch records only: the row-level mutation, applied
	// deterministically by ApplyPatchToTable wherever the record lands.
	Patch *Patch
}

// TableState is one table of a catalog state: the payload of a snapshot
// entry, mirroring catalog.Entry without importing it (catalog imports wal,
// not the reverse).
type TableState struct {
	Name string
	// Version is the catalog version at which the table was installed; it is
	// preserved across recovery so plan-cache keys stay stable.
	Version       uint64
	Probabilistic bool
	Table         *pctable.PCTable
}

// State is a whole catalog at one version: the unit of a snapshot. Tables
// are sorted by name (EncodeState enforces it).
type State struct {
	Version uint64
	Tables  []TableState
}

// Apply advances the state by one record. It returns an error if the record
// does not extend the state's version chain by exactly one.
func (s *State) Apply(rec *Record) error {
	if rec.Version != s.Version+1 {
		return fmt.Errorf("%w: record version %d does not extend state version %d", ErrCorrupt, rec.Version, s.Version)
	}
	i := sort.Search(len(s.Tables), func(i int) bool { return s.Tables[i].Name >= rec.Name })
	found := i < len(s.Tables) && s.Tables[i].Name == rec.Name
	if !found && rec.Kind != KindPut {
		return fmt.Errorf("%w: %s of unknown table %q at version %d", ErrCorrupt, rec.Kind, rec.Name, rec.Version)
	}
	switch rec.Kind {
	case KindPut:
		if !found {
			s.Tables = slices.Insert(s.Tables, i, TableState{})
		}
		s.Tables[i] = TableState{Name: rec.Name, Version: rec.Version, Probabilistic: rec.Probabilistic, Table: rec.Table}
	case KindDelete:
		s.Tables = slices.Delete(s.Tables, i, i+1)
	case KindPatch:
		if rec.Patch == nil {
			return fmt.Errorf("%w: patch record for %q has no payload", ErrCorrupt, rec.Name)
		}
		ap, err := ApplyPatchToTable(s.Tables[i].Table, rec.Patch)
		if err != nil {
			return fmt.Errorf("%w: patch of %q at version %d: %v", ErrCorrupt, rec.Name, rec.Version, err)
		}
		s.Tables[i] = TableState{Name: rec.Name, Version: rec.Version, Probabilistic: rec.Probabilistic, Table: ap.New}
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, rec.Kind)
	}
	s.Version = rec.Version
	return nil
}

// ---- records ----

// EncodeRecord encodes one mutation record (the payload of a log frame): the
// header line ("<kind> <version> <name>", plus the probabilistic flag for a
// put or a patch), then the put table's script or the patch's script,
// appended into the one buffer.
func EncodeRecord(rec *Record) []byte {
	b := append(make([]byte, 0, 64), rec.Kind.String()...)
	b = strconv.AppendUint(append(b, ' '), rec.Version, 10)
	b = append(append(b, ' '), rec.Name...)
	switch rec.Kind {
	case KindPut:
		b = strconv.AppendBool(append(b, ' '), rec.Probabilistic)
		return parser.AppendScript(append(b, '\n'), rec.Name, rec.Table)
	case KindPatch:
		b = strconv.AppendBool(append(b, ' '), rec.Probabilistic)
		return parser.AppendPatchScript(append(b, '\n'), rec.Patch)
	default:
		return append(b, '\n')
	}
}

// DecodeRecord decodes one mutation record. Arbitrary input yields an error,
// never a panic.
func DecodeRecord(b []byte) (*Record, error) {
	rec := &Record{}
	var kind string
	n, body, err := scanLine(b, &kind, &rec.Version, &rec.Name, &rec.Probabilistic)
	switch {
	case err != nil:
		return nil, err
	case rec.Version == 0:
		return nil, fmt.Errorf("%w: record with version 0", ErrCorrupt)
	case kind == "delete" && n >= 3 && len(body) == 0:
		// A change-feed delete also carries the (false) probabilistic flag.
		rec.Kind = KindDelete
	case kind == "patch" && n == 4:
		rec.Kind = KindPatch
		if rec.Patch, err = DecodePatch(body); err != nil {
			return nil, err
		}
	case kind == "put" && n == 4:
		rec.Kind = KindPut
		pt, err := parser.ParseTableString(string(body))
		if err == nil && pt.Name != rec.Name {
			err = fmt.Errorf("record for %q carries table %q", rec.Name, pt.Name)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		rec.Table = pt.PCTable
	default:
		return nil, fmt.Errorf("%w: bad record header", ErrCorrupt)
	}
	return rec, nil
}

// scanLine splits the first line off b and parses its space-separated
// fields byte for byte into args (*string, *uint64 or *bool). It
// returns how many fields the line has and the bytes after the line; more
// fields than args, or a field that does not parse, is corrupt.
func scanLine(b []byte, args ...any) (n int, rest []byte, err error) {
	line, rest, ok := bytes.Cut(b, []byte{'\n'})
	fields := strings.Fields(string(line))
	if !ok || len(fields) > len(args) {
		return 0, nil, fmt.Errorf("%w: bad header line", ErrCorrupt)
	}
	for i, f := range fields {
		switch p := args[i].(type) {
		case *string:
			*p = f
		case *uint64:
			*p, err = strconv.ParseUint(f, 10, 64)
		case *bool:
			*p, err = strconv.ParseBool(f)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("%w: header field %q: %v", ErrCorrupt, f, err)
		}
	}
	return len(fields), rest, nil
}

// checkMagic reports whether data starts with magic: ErrFormat when only the
// trailing format-version byte differs, ErrCorrupt for anything else.
func checkMagic(data, magic []byte, what string) error {
	n := len(magic)
	switch {
	case len(data) >= n && bytes.Equal(data[:n], magic):
		return nil
	case len(data) >= n && bytes.Equal(data[:n-1], magic[:n-1]):
		return fmt.Errorf("%w: %s format version %d, this build reads %d", ErrFormat, what, data[n-1], magic[n-1])
	default:
		return fmt.Errorf("%w: bad %s magic", ErrCorrupt, what)
	}
}

// ---- snapshots ----

// snapMagic heads every snapshot file; the trailing byte is the format
// version.
var snapMagic = []byte{'U', 'S', 'N', 'P', 0, 0, 0, 2}

// EncodeState encodes a whole catalog state as a canonical snapshot: magic,
// the header line "snapshot <version> <tables>", one line "<name> <version>
// <probabilistic>" per table sorted by name, the catalog script of the same
// tables in the same order, and a closing CRC32 of everything before it.
// Encoding is a pure function of the state: equal states encode to equal
// bytes.
func EncodeState(st *State) []byte {
	tables := append([]TableState(nil), st.Tables...)
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	b := fmt.Appendf(append([]byte(nil), snapMagic...), "snapshot %d %d\n", st.Version, len(tables))
	for _, ts := range tables {
		b = fmt.Appendf(b, "%s %d %t\n", ts.Name, ts.Version, ts.Probabilistic)
	}
	for _, ts := range tables {
		b = parser.AppendScript(b, ts.Name, ts.Table)
	}
	return binary.LittleEndian.AppendUint32(b, Checksum(b))
}

// DecodeState decodes a snapshot. Arbitrary input yields an error, never a
// panic; a snapshot in another format version is ErrFormat, and one whose
// closing checksum does not match is corrupt as a whole (snapshots are
// written atomically, there is no valid prefix to salvage).
func DecodeState(b []byte) (*State, error) {
	if err := checkMagic(b, snapMagic, "snapshot"); err != nil {
		return nil, err
	}
	if len(b) < len(snapMagic)+4 {
		return nil, fmt.Errorf("%w: snapshot too short (%d bytes)", ErrCorrupt, len(b))
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), Checksum(body); got != want {
		return nil, fmt.Errorf("%w: snapshot checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	st := &State{}
	var word string
	var count uint64
	n, rest, err := scanLine(body[len(snapMagic):], &word, &st.Version, &count)
	if err == nil && (n != 3 || word != "snapshot" || count > uint64(len(rest))) {
		err = fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
	}
	for i := uint64(0); i < count && err == nil; i++ {
		ts := TableState{}
		if n, rest, err = scanLine(rest, &ts.Name, &ts.Version, &ts.Probabilistic); err == nil && (n != 3 || ts.Version > st.Version || i > 0 && ts.Name <= st.Tables[i-1].Name) {
			err = fmt.Errorf("%w: bad or unsorted snapshot table line %d", ErrCorrupt, i+1)
		}
		st.Tables = append(st.Tables, ts)
	}
	if err != nil {
		return nil, err
	}
	if count == 0 && len(rest) == 0 {
		return st, nil
	}
	parsed, err := parser.ParseCatalogString(string(rest))
	if err == nil && uint64(len(parsed)) != count {
		err = fmt.Errorf("snapshot lists %d tables but carries %d", count, len(parsed))
	}
	for i := uint64(0); i < count && err == nil; i++ {
		if st.Tables[i].Table = parsed[i].PCTable; parsed[i].Name != st.Tables[i].Name {
			err = fmt.Errorf("snapshot lists table %q but carries %q", st.Tables[i].Name, parsed[i].Name)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return st, nil
}
