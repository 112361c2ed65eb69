// Package wal implements durability for the catalog: an append-only,
// checksummed, length-prefixed log of catalog mutations, periodic compacted
// snapshots with a deterministic canonical encoding of tables, and crash
// recovery that loads the latest valid snapshot and replays the WAL tail,
// discarding a torn final record.
//
// The house invariant of this codebase is byte-identical determinism at
// every layer, and persistence is held to the same bar: encoding a catalog
// state is a pure function of the state — table names sorted, variables
// sorted, domain values and distribution outcomes in the canonical value
// order, float64 probabilities as exact bit patterns — so snapshot → recover
// → re-snapshot reproduces the exact bytes, and replaying any valid prefix
// of the log reproduces the exact catalog observed at that version. The
// crash-injection and golden-replay tests in this package assert both.
//
// Layout of a data directory (Store):
//
//	wal.log               framed mutation records since the last snapshot
//	snap-<version>.snap   canonical catalog snapshot at <version>
//
// Every decoder in this package is total: arbitrary bytes never panic, they
// produce an error (FuzzWALDecode locks this down).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
)

// ErrCorrupt reports bytes that are not a valid encoding. Recovery treats a
// corrupt record as the torn tail of the log: it and everything after it are
// discarded.
var ErrCorrupt = errors.New("wal: corrupt encoding")

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
	switch rec.Kind {
	case KindPut:
		ts := TableState{Name: rec.Name, Version: rec.Version, Probabilistic: rec.Probabilistic, Table: rec.Table}
		i := sort.Search(len(s.Tables), func(i int) bool { return s.Tables[i].Name >= rec.Name })
		if i < len(s.Tables) && s.Tables[i].Name == rec.Name {
			s.Tables[i] = ts
		} else {
			s.Tables = append(s.Tables, TableState{})
			copy(s.Tables[i+1:], s.Tables[i:])
			s.Tables[i] = ts
		}
	case KindDelete:
		i := sort.Search(len(s.Tables), func(i int) bool { return s.Tables[i].Name >= rec.Name })
		if i >= len(s.Tables) || s.Tables[i].Name != rec.Name {
			return fmt.Errorf("%w: delete of unknown table %q at version %d", ErrCorrupt, rec.Name, rec.Version)
		}
		s.Tables = append(s.Tables[:i], s.Tables[i+1:]...)
	case KindPatch:
		i := sort.Search(len(s.Tables), func(i int) bool { return s.Tables[i].Name >= rec.Name })
		if i >= len(s.Tables) || s.Tables[i].Name != rec.Name {
			return fmt.Errorf("%w: patch of unknown table %q at version %d", ErrCorrupt, rec.Name, rec.Version)
		}
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

// Decoding limits. They bound allocations driven by attacker-controlled
// counts; real catalogs sit far below them.
const (
	maxArity      = 1 << 16
	maxNameLen    = 1 << 20
	maxCondDepth  = 1 << 12
	maxCondArity  = 1 << 20
	maxTableCount = 1 << 20
)

// ---- primitive append/decode helpers ----

func appendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decoder walks an encoded byte slice with sticky error handling. Every
// accessor is bounds-checked, so arbitrary input produces ErrCorrupt rather
// than a panic.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("unexpected end of input")
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) || d.off+n < d.off {
		d.fail("%d bytes wanted, %d left", n, len(d.b)-d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) string(max int) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(max) {
		d.fail("string length %d exceeds limit %d", n, max)
		return ""
	}
	return string(d.bytes(int(n)))
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) float64() float64 {
	raw := d.bytes(8)
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw))
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}

// ---- values ----

const (
	valNull byte = 0
	valInt  byte = 1
	valStr  byte = 2
	valBool byte = 3
)

func appendValue(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindInt:
		b = append(b, valInt)
		return binary.AppendVarint(b, v.AsInt())
	case value.KindString:
		b = append(b, valStr)
		return appendString(b, v.AsString())
	case value.KindBool:
		b = append(b, valBool)
		return appendBool(b, v.AsBool())
	default:
		return append(b, valNull)
	}
}

func (d *decoder) value() value.Value {
	switch tag := d.byte(); tag {
	case valNull:
		return value.Null
	case valInt:
		if d.err != nil {
			return value.Null
		}
		x, n := binary.Varint(d.b[d.off:])
		if n <= 0 {
			d.fail("bad varint")
			return value.Null
		}
		d.off += n
		return value.Int(x)
	case valStr:
		return value.Str(d.string(maxNameLen))
	case valBool:
		return value.Bool(d.bool())
	default:
		d.fail("unknown value tag %d", tag)
		return value.Null
	}
}

// ---- terms and conditions ----

func appendTerm(b []byte, t condition.Term) []byte {
	if t.IsVar {
		b = append(b, 1)
		return appendString(b, string(t.Var))
	}
	b = append(b, 0)
	return appendValue(b, t.Const)
}

func (d *decoder) term() condition.Term {
	switch tag := d.byte(); tag {
	case 1:
		return condition.Var(d.string(maxNameLen))
	case 0:
		return condition.Const(d.value())
	default:
		d.fail("unknown term tag %d", tag)
		return condition.Term{}
	}
}

const (
	condTrue  byte = 0
	condFalse byte = 1
	condCmp   byte = 2
	condAnd   byte = 3
	condOr    byte = 4
	condNot   byte = 5
)

// appendCondition encodes the condition tree exactly as structured — no
// re-association, no sorting — so decode reconstructs the identical tree and
// renderings (catalog exports, plan text) are byte-stable across recovery.
func appendCondition(b []byte, c condition.Condition) []byte {
	switch c := c.(type) {
	case nil:
		return append(b, condTrue)
	case condition.TrueCond:
		return append(b, condTrue)
	case condition.FalseCond:
		return append(b, condFalse)
	case condition.Cmp:
		b = append(b, condCmp)
		b = appendTerm(b, c.Left)
		b = appendBool(b, c.Neq)
		return appendTerm(b, c.Right)
	case condition.AndCond:
		b = append(b, condAnd)
		b = appendUvarint(b, uint64(len(c.Conds)))
		for _, sub := range c.Conds {
			b = appendCondition(b, sub)
		}
		return b
	case condition.OrCond:
		b = append(b, condOr)
		b = appendUvarint(b, uint64(len(c.Conds)))
		for _, sub := range c.Conds {
			b = appendCondition(b, sub)
		}
		return b
	case condition.NotCond:
		b = append(b, condNot)
		return appendCondition(b, c.Cond)
	default:
		// The condition grammar is closed; anything else is a programming
		// error worth surfacing loudly at encode time, not a decode hazard.
		panic(fmt.Sprintf("wal: cannot encode condition of type %T", c))
	}
}

func (d *decoder) condition(depth int) condition.Condition {
	if depth > maxCondDepth {
		d.fail("condition nesting exceeds %d", maxCondDepth)
		return condition.False()
	}
	switch tag := d.byte(); tag {
	case condTrue:
		return condition.TrueCond{}
	case condFalse:
		return condition.FalseCond{}
	case condCmp:
		left := d.term()
		neq := d.bool()
		right := d.term()
		return condition.Cmp{Left: left, Neq: neq, Right: right}
	case condAnd, condOr:
		n := d.uvarint()
		if n > maxCondArity {
			d.fail("condition arity %d exceeds %d", n, maxCondArity)
			return condition.False()
		}
		conds := make([]condition.Condition, 0, min(int(n), 64))
		for i := uint64(0); i < n && d.err == nil; i++ {
			conds = append(conds, d.condition(depth+1))
		}
		if tag == condAnd {
			return condition.AndCond{Conds: conds}
		}
		return condition.OrCond{Conds: conds}
	case condNot:
		return condition.NotCond{Cond: d.condition(depth + 1)}
	default:
		d.fail("unknown condition tag %d", tag)
		return condition.False()
	}
}

// ---- tables ----

// AppendTable appends the canonical encoding of a pc-table: arity, rows in
// table order (term/condition trees preserved exactly), declared variable
// domains sorted by variable name with values in canonical order, and
// distributions sorted by variable name with outcomes in canonical value
// order and probabilities as exact float64 bit patterns.
func AppendTable(b []byte, t *pctable.PCTable) []byte {
	tab := t.Table()
	b = appendUvarint(b, uint64(tab.Arity()))
	rows := tab.Rows()
	b = appendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		for _, term := range r.Terms {
			b = appendTerm(b, term)
		}
		b = appendCondition(b, r.Cond)
	}

	type domEntry struct {
		name string
		dom  *value.Domain
	}
	var doms []domEntry
	tab.EachDomain(func(x condition.Variable, dom *value.Domain) {
		doms = append(doms, domEntry{string(x), dom})
	})
	sort.Slice(doms, func(i, j int) bool { return doms[i].name < doms[j].name })
	b = appendUvarint(b, uint64(len(doms)))
	for _, de := range doms {
		b = appendString(b, de.name)
		vals := de.dom.Values()
		b = appendUvarint(b, uint64(len(vals)))
		for _, v := range vals {
			b = appendValue(b, v)
		}
	}

	// Every declared distribution, including those of variables no row
	// mentions yet: a later patch row may use one.
	var distVars []string
	t.EachDist(func(x condition.Variable, _ *prob.Space) {
		distVars = append(distVars, string(x))
	})
	sort.Strings(distVars)
	b = appendUvarint(b, uint64(len(distVars)))
	for _, name := range distVars {
		space := t.Dist(condition.Variable(name))
		b = appendString(b, name)
		outcomes := space.Outcomes()
		b = appendUvarint(b, uint64(len(outcomes)))
		for _, o := range outcomes {
			b = appendValue(b, o.ValuePayload())
			var raw [8]byte
			binary.LittleEndian.PutUint64(raw[:], math.Float64bits(o.P))
			b = append(b, raw[:]...)
		}
	}
	return b
}

// EncodeTable is AppendTable into a fresh buffer.
func EncodeTable(t *pctable.PCTable) []byte { return AppendTable(nil, t) }

// table decodes a pc-table (the AppendTable encoding) from the decoder.
func (d *decoder) table() *pctable.PCTable {
	arity := d.uvarint()
	if d.err != nil {
		return nil
	}
	if arity == 0 || arity > maxArity {
		d.fail("bad arity %d", arity)
		return nil
	}
	t := pctable.NewWithArity(int(arity))
	numRows := d.uvarint()
	for i := uint64(0); i < numRows && d.err == nil; i++ {
		terms := make([]condition.Term, arity)
		for j := range terms {
			terms[j] = d.term()
		}
		cond := d.condition(0)
		if d.err != nil {
			return nil
		}
		t.AddRow(terms, cond)
	}

	// Distributions before domains: SetDist overwrites the domain with the
	// support, and re-applying every encoded domain afterwards restores the
	// exact declared domains regardless of how they were set originally.
	type domEntry struct {
		name string
		vals []value.Value
	}
	numDoms := d.uvarint()
	if numDoms > maxTableCount {
		d.fail("domain count %d exceeds %d", numDoms, maxTableCount)
		return nil
	}
	doms := make([]domEntry, 0, min(int(numDoms), 64))
	for i := uint64(0); i < numDoms && d.err == nil; i++ {
		name := d.string(maxNameLen)
		n := d.uvarint()
		if n == 0 || n > maxTableCount {
			d.fail("bad domain size %d for %s", n, name)
			return nil
		}
		vals := make([]value.Value, 0, min(int(n), 64))
		for j := uint64(0); j < n && d.err == nil; j++ {
			vals = append(vals, d.value())
		}
		doms = append(doms, domEntry{name, vals})
	}

	numDists := d.uvarint()
	if numDists > maxTableCount {
		d.fail("distribution count %d exceeds %d", numDists, maxTableCount)
		return nil
	}
	for i := uint64(0); i < numDists && d.err == nil; i++ {
		name := d.string(maxNameLen)
		n := d.uvarint()
		if n == 0 || n > maxTableCount {
			d.fail("bad distribution size %d for %s", n, name)
			return nil
		}
		dist := make(map[value.Value]float64, min(int(n), 64))
		for j := uint64(0); j < n && d.err == nil; j++ {
			v := d.value()
			p := d.float64()
			if _, dup := dist[v]; dup {
				d.fail("duplicate outcome %s in distribution of %s", v, name)
				return nil
			}
			dist[v] = p
		}
		if d.err != nil {
			return nil
		}
		// SetDist panics on an invalid distribution; validate with the
		// non-panicking constructor first so corrupt bytes stay errors.
		if _, err := prob.NewValueSpace(dist); err != nil {
			d.fail("invalid distribution for %s: %v", name, err)
			return nil
		}
		t.SetDist(name, dist)
	}

	for _, de := range doms {
		if d.err != nil {
			return nil
		}
		t.Table().SetDomain(de.name, value.NewDomain(de.vals...))
	}
	if d.err != nil {
		return nil
	}
	return t
}

// DecodeTable decodes a canonical table encoding. Arbitrary input yields an
// error, never a panic.
func DecodeTable(b []byte) (*pctable.PCTable, error) {
	d := &decoder{b: b}
	t := d.table()
	if err := d.done(); err != nil {
		return nil, err
	}
	return t, nil
}

// ---- records ----

// EncodeRecord encodes one mutation record (the payload of a log frame).
func EncodeRecord(rec *Record) []byte {
	b := make([]byte, 0, 64)
	b = append(b, byte(rec.Kind))
	b = appendUvarint(b, rec.Version)
	b = appendString(b, rec.Name)
	switch rec.Kind {
	case KindPut:
		b = appendBool(b, rec.Probabilistic)
		table := AppendTable(nil, rec.Table)
		b = appendUvarint(b, uint64(len(table)))
		b = append(b, table...)
	case KindPatch:
		b = appendBool(b, rec.Probabilistic)
		patch := EncodePatch(rec.Patch)
		b = appendUvarint(b, uint64(len(patch)))
		b = append(b, patch...)
	}
	return b
}

// DecodeRecord decodes one mutation record. Arbitrary input yields an error,
// never a panic.
func DecodeRecord(b []byte) (*Record, error) {
	d := &decoder{b: b}
	rec := &Record{}
	kind := d.byte()
	rec.Kind = Kind(kind)
	rec.Version = d.uvarint()
	rec.Name = d.string(maxNameLen)
	switch rec.Kind {
	case KindPut:
		rec.Probabilistic = d.bool()
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)-d.off) {
			d.fail("table length %d exceeds remaining %d", n, len(d.b)-d.off)
		}
		raw := d.bytes(int(n))
		if d.err == nil {
			t, err := DecodeTable(raw)
			if err != nil {
				return nil, err
			}
			rec.Table = t
		}
	case KindPatch:
		rec.Probabilistic = d.bool()
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)-d.off) {
			d.fail("patch length %d exceeds remaining %d", n, len(d.b)-d.off)
		}
		raw := d.bytes(int(n))
		if d.err == nil {
			p, err := DecodePatch(raw)
			if err != nil {
				return nil, err
			}
			rec.Patch = p
		}
	case KindDelete:
	default:
		d.fail("unknown record kind %d", kind)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if rec.Name == "" {
		return nil, fmt.Errorf("%w: record with empty table name", ErrCorrupt)
	}
	if rec.Version == 0 {
		return nil, fmt.Errorf("%w: record with version 0", ErrCorrupt)
	}
	return rec, nil
}

// ---- snapshots ----

// snapMagic heads every snapshot file; the trailing byte is the format
// version.
var snapMagic = []byte{'U', 'S', 'N', 'P', 0, 0, 0, 1}

// EncodeState encodes a whole catalog state as a canonical snapshot:
// magic, catalog version, table count, then each table sorted by name
// (name, entry version, probabilistic, canonical table bytes), and a closing
// CRC32 of everything before it. Encoding is a pure function of the state:
// equal states encode to equal bytes.
func EncodeState(st *State) []byte {
	tables := append([]TableState(nil), st.Tables...)
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	b := append([]byte(nil), snapMagic...)
	b = appendUvarint(b, st.Version)
	b = appendUvarint(b, uint64(len(tables)))
	for _, ts := range tables {
		b = appendString(b, ts.Name)
		b = appendUvarint(b, ts.Version)
		b = appendBool(b, ts.Probabilistic)
		table := AppendTable(nil, ts.Table)
		b = appendUvarint(b, uint64(len(table)))
		b = append(b, table...)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], checksum(b))
	return append(b, crc[:]...)
}

// DecodeState decodes a snapshot. Arbitrary input yields an error, never a
// panic; a snapshot whose closing checksum does not match is corrupt as a
// whole (snapshots are written atomically, there is no valid prefix to
// salvage).
func DecodeState(b []byte) (*State, error) {
	if len(b) < len(snapMagic)+4 {
		return nil, fmt.Errorf("%w: snapshot too short (%d bytes)", ErrCorrupt, len(b))
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), checksum(body); got != want {
		return nil, fmt.Errorf("%w: snapshot checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	d := &decoder{b: body}
	magic := d.bytes(len(snapMagic))
	if d.err == nil && string(magic) != string(snapMagic) {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	st := &State{Version: d.uvarint()}
	count := d.uvarint()
	if count > maxTableCount {
		return nil, fmt.Errorf("%w: table count %d exceeds %d", ErrCorrupt, count, maxTableCount)
	}
	prevName := ""
	for i := uint64(0); i < count && d.err == nil; i++ {
		ts := TableState{Name: d.string(maxNameLen)}
		ts.Version = d.uvarint()
		ts.Probabilistic = d.bool()
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)-d.off) {
			d.fail("table length %d exceeds remaining %d", n, len(d.b)-d.off)
		}
		raw := d.bytes(int(n))
		if d.err != nil {
			break
		}
		table, err := DecodeTable(raw)
		if err != nil {
			return nil, err
		}
		ts.Table = table
		if i > 0 && ts.Name <= prevName {
			return nil, fmt.Errorf("%w: snapshot tables not sorted (%q after %q)", ErrCorrupt, ts.Name, prevName)
		}
		if ts.Version > st.Version {
			return nil, fmt.Errorf("%w: table %q version %d exceeds catalog version %d", ErrCorrupt, ts.Name, ts.Version, st.Version)
		}
		prevName = ts.Name
		st.Tables = append(st.Tables, ts)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return st, nil
}
