package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
)

// testTable builds a deterministic pc-table whose shape varies with i,
// exercising every corner of the canonical encoding: string constants only
// the quoted string form can carry (quotes, newlines), negative ints, bools,
// nulls, variable terms, nested And/Or/Not/Cmp condition trees, declared
// domains wider than a distribution's support, and float probabilities with
// non-terminating binary expansions.
func testTable(i int) *pctable.PCTable {
	switch i % 3 {
	case 0:
		// Boolean pc-table with awkward constants.
		t := pctable.NewWithArity(2)
		t.SetBoolDist("g", 0.3)
		t.AddConstRow(value.Tuple{value.Str("it's\na \"trap\""), value.Int(int64(-i - 1))}, condition.IsTrueVar("g"))
		t.AddConstRow(value.Tuple{value.Str(""), value.Bool(i%2 == 0)}, condition.Not(condition.IsTrueVar("g")))
		return t
	case 1:
		// Discrete distribution plus a nested condition tree.
		t := pctable.NewWithArity(1)
		t.SetDist("x", map[value.Value]float64{
			value.Str("phys"): 0.1,
			value.Str("chem"): 0.2,
			value.Int(7):      0.7,
		})
		t.AddRow([]condition.Term{condition.Var("x")},
			condition.Or(
				condition.And(condition.EqVarConst("x", value.Str("phys")), condition.True()),
				condition.Not(condition.Neq(condition.Var("x"), condition.ConstInt(7))),
			))
		return t
	default:
		// Plain c-table: no distributions, a declared domain, a null constant.
		t := pctable.NewWithArity(2)
		t.AddRow([]condition.Term{condition.Var("y"), condition.Const(value.Null)},
			condition.EqVarConst("y", value.Int(int64(i))))
		t.Table().SetDomain("y", value.NewDomain(value.Int(int64(i)), value.Int(int64(i+1)), value.Int(42)))
		return t
	}
}

// testPatch builds a deterministic patch against the given table: it deletes
// the first row on odd versions, upserts one fresh constant row, and — when
// the table has a distribution-less variable y (the plain-c-table shape of
// testTable) — attaches a distribution over y's declared domain, exercising
// the add-only dist path.
func testPatch(tab *pctable.PCTable, v uint64) *Patch {
	p := &Patch{}
	if rows := tab.Table().Rows(); len(rows) > 0 && v%2 == 1 {
		r := rows[0]
		p.Deletes = append(p.Deletes, PatchRow{Terms: append([]condition.Term(nil), r.Terms...), Cond: r.Cond})
	}
	terms := make([]condition.Term, tab.Arity())
	for j := range terms {
		terms[j] = condition.Const(value.Int(int64(v)*10 + int64(j)))
	}
	p.Upserts = append(p.Upserts, PatchRow{Terms: terms, Cond: condition.True()})
	if tab.Dist("y") == nil {
		tab.EachDomain(func(x condition.Variable, dom *value.Domain) {
			if x != "y" {
				return
			}
			vals := dom.Values()
			dist := make(map[value.Value]float64, len(vals))
			for _, val := range vals {
				dist[val] = 1 / float64(len(vals))
			}
			p.Dists = append(p.Dists, DistPatch{Var: "y", Dist: prob.MustNewValueSpace(dist)})
		})
	}
	return p
}

// testHistory builds a deterministic mutation history of n records (puts of
// rotating tables interleaved with deletes and row-level patches) and the
// canonical snapshot bytes of the catalog state after each prefix:
// exports[v] is the state at version v, exports[0] the empty state.
func testHistory(t testing.TB, n int) ([]*Record, [][]byte) {
	t.Helper()
	st := &State{}
	exports := [][]byte{EncodeState(st)}
	var recs []*Record
	for v := uint64(1); v <= uint64(n); v++ {
		var rec *Record
		name := fmt.Sprintf("T%d", v%3)
		switch {
		case v%5 == 0 && hasTable(st, name):
			rec = &Record{Kind: KindDelete, Version: v, Name: name}
		case v%5 == 2 && hasTable(st, name):
			var tab *pctable.PCTable
			for _, ts := range st.Tables {
				if ts.Name == name {
					tab = ts.Table
				}
			}
			p := testPatch(tab, v)
			ap, err := ApplyPatchToTable(tab, p)
			if err != nil {
				t.Fatalf("build patch %d: %v", v, err)
			}
			rec = &Record{Kind: KindPatch, Version: v, Name: name, Probabilistic: ap.New.Validate() == nil, Patch: p}
		default:
			tab := testTable(int(v))
			rec = &Record{Kind: KindPut, Version: v, Name: name, Probabilistic: tab.Validate() == nil, Table: tab}
		}
		if err := st.Apply(rec); err != nil {
			t.Fatalf("apply record %d: %v", v, err)
		}
		recs = append(recs, rec)
		exports = append(exports, EncodeState(st))
	}
	return recs, exports
}

func hasTable(st *State, name string) bool {
	for _, ts := range st.Tables {
		if ts.Name == name {
			return true
		}
	}
	return false
}

// EncodeLog renders a whole log: the magic header followed by every record
// framed in order — the exact byte sequence Log.Append produces.
func EncodeLog(recs []*Record) []byte {
	b := append([]byte(nil), logMagic...)
	for _, rec := range recs {
		b = AppendFrame(b, EncodeRecord(rec))
	}
	return b
}

// replayState rebuilds the state at the given version by replaying the
// record prefix from scratch.
func replayState(t testing.TB, recs []*Record, version uint64) *State {
	t.Helper()
	st := &State{}
	for _, rec := range recs {
		if rec.Version > version {
			break
		}
		if err := st.Apply(rec); err != nil {
			t.Fatalf("replay to %d: %v", version, err)
		}
	}
	return st
}

func TestRecordRoundTrip(t *testing.T) {
	recs, _ := testHistory(t, 12)
	for _, rec := range recs {
		enc := EncodeRecord(rec)
		dec, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("record v%d: decode: %v", rec.Version, err)
		}
		if dec.Kind != rec.Kind || dec.Version != rec.Version || dec.Name != rec.Name || dec.Probabilistic != rec.Probabilistic {
			t.Fatalf("record v%d: decoded header %+v != %+v", rec.Version, dec, rec)
		}
		// Re-encoding the decode must reproduce the exact bytes: the
		// encoding is canonical, so decode loses nothing.
		if again := EncodeRecord(dec); !bytes.Equal(again, enc) {
			t.Fatalf("record v%d: encode∘decode not byte-identical", rec.Version)
		}
		if rec.Kind == KindPut {
			if dec.Table.String() != rec.Table.String() {
				t.Fatalf("record v%d: decoded table renders differently:\n%s\nvs\n%s",
					rec.Version, dec.Table, rec.Table)
			}
		}
	}
}

// Header lines are split byte for byte: a table name that is not UTF-8
// (which the catalog refuses, but the log layer must not mangle) decodes to
// the same bytes in a record and in a snapshot.
func TestHeaderNamesByteExact(t *testing.T) {
	for _, name := range []string{"T\xff\xfe", "Ω€", "T\uFFFD"} {
		rec := &Record{Kind: KindPut, Version: 1, Name: name, Probabilistic: true, Table: testTable(0)}
		dec, err := DecodeRecord(EncodeRecord(rec))
		if err != nil || dec.Name != name {
			t.Fatalf("record for %q: decoded %+v, %v", name, dec, err)
		}
		st := &State{Version: 1, Tables: []TableState{{Name: name, Version: 1, Probabilistic: true, Table: testTable(0)}}}
		got, err := DecodeState(EncodeState(st))
		if err != nil || got.Tables[0].Name != name {
			t.Fatalf("snapshot of %q: decoded %+v, %v", name, got, err)
		}
	}
	if _, err := DecodeRecord([]byte("delete 2 T true extra\n")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header with a trailing field: %v, want ErrCorrupt", err)
	}
}

func TestStateEncodingDeterministic(t *testing.T) {
	recs, exports := testHistory(t, 12)
	for v := 0; v <= len(recs); v++ {
		// Rebuilding the state from scratch encodes to the same bytes.
		st := replayState(t, recs, uint64(v))
		if got := EncodeState(st); !bytes.Equal(got, exports[v]) {
			t.Fatalf("version %d: re-derived state encodes differently", v)
		}
		// Decode → re-encode is byte-identical (snapshot → recover →
		// re-snapshot).
		dec, err := DecodeState(exports[v])
		if err != nil {
			t.Fatalf("version %d: decode snapshot: %v", v, err)
		}
		if got := EncodeState(dec); !bytes.Equal(got, exports[v]) {
			t.Fatalf("version %d: snapshot→recover→re-snapshot not byte-identical", v)
		}
	}
}

func TestScanRecordsFullLog(t *testing.T) {
	recs, _ := testHistory(t, 12)
	data := EncodeLog(recs)
	got, validLen, err := ScanRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != len(data) {
		t.Fatalf("validLen = %d, want %d (whole log valid)", validLen, len(data))
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		if rec.Version != recs[i].Version || rec.Kind != recs[i].Kind || rec.Name != recs[i].Name {
			t.Fatalf("record %d: %+v != %+v", i, rec, recs[i])
		}
	}
}

// A flipped byte anywhere in a frame's payload or header must be caught by
// the CRC (or the framing) and treated as the torn tail: the record it hits
// and everything after are discarded, everything before survives intact.
func TestFrameChecksumRejectsMutation(t *testing.T) {
	recs, _ := testHistory(t, 6)
	data := EncodeLog(recs)
	// Frame boundaries: frames[i] is the offset of record i's frame.
	offsets := []int{len(logMagic)}
	for _, rec := range recs {
		offsets = append(offsets, offsets[len(offsets)-1]+frameHeaderSize+len(EncodeRecord(rec)))
	}
	for i := len(logMagic); i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		got, _, err := ScanRecords(mut)
		if err != nil {
			t.Fatalf("flip at %d: unexpected error %v", i, err)
		}
		// The flip lands inside record hit's frame; records before it must
		// survive, it and everything after must not.
		hit := len(recs)
		for r := 0; r < len(recs); r++ {
			if i < offsets[r+1] {
				hit = r
				break
			}
		}
		if len(got) > hit {
			t.Fatalf("flip at %d (record %d): %d records survived, want ≤ %d", i, hit, len(got), hit)
		}
	}
}

func TestOpenLogTruncatesTornTail(t *testing.T) {
	recs, _ := testHistory(t, 5)
	data := EncodeLog(recs)
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	// Cut mid-way through the last frame.
	cut := len(data) - len(EncodeRecord(recs[len(recs)-1]))/2
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	log, got, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs)-1 {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs)-1)
	}
	// The tail must be physically gone: appending after recovery yields a
	// clean log containing the surviving prefix plus the new record.
	next := &Record{Kind: KindPut, Version: got[len(got)-1].Version + 1, Name: "T0", Table: testTable(1)}
	if err := log.Append(next, false); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rescanned, validLen, err := ScanRecords(onDisk)
	if err != nil || validLen != len(onDisk) {
		t.Fatalf("post-recovery log not fully valid: %v (valid %d of %d)", err, validLen, len(onDisk))
	}
	if len(rescanned) != len(recs) {
		t.Fatalf("post-recovery log has %d records, want %d", len(rescanned), len(recs))
	}
}

func TestStoreAppendReopen(t *testing.T) {
	recs, exports := testHistory(t, 12)
	dir := t.TempDir()
	store, st, tail, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 0 || len(tail) != 0 {
		t.Fatalf("fresh dir: state v%d, %d tail records; want empty", st.Version, len(tail))
	}
	live := &State{}
	for _, rec := range recs {
		if err := live.Apply(rec); err != nil {
			t.Fatal(err)
		}
		if err := store.Append(rec, func() *State { return live }); err != nil {
			t.Fatalf("append v%d: %v", rec.Version, err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, st2, tail2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := EncodeState(st2); !bytes.Equal(got, exports[len(recs)]) {
		t.Fatal("recovered state is not byte-identical to the live export")
	}
	if len(tail2) != len(recs) {
		t.Fatalf("recovered %d tail records, want %d (no compaction)", len(tail2), len(recs))
	}
}

func TestStoreCompaction(t *testing.T) {
	recs, exports := testHistory(t, 12)
	dir := t.TempDir()
	store, _, _, err := Open(dir, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	live := &State{}
	for _, rec := range recs {
		if err := live.Apply(rec); err != nil {
			t.Fatal(err)
		}
		if err := store.Append(rec, func() *State { return live }); err != nil {
			t.Fatal(err)
		}
	}
	if base := store.CompactedBefore(); base != 12 {
		t.Fatalf("CompactedBefore = %d, want 12 (three snapshots at every 4)", base)
	}
	// Only the newest snapshot file survives, and the log is back to bare.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".snap" {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshot files after compaction: %v, want exactly one", snaps)
	}
	logData, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logData) != len(logMagic) {
		t.Fatalf("log is %d bytes after compaction, want bare header (%d)", len(logData), len(logMagic))
	}

	// Records the snapshot covers are gone: TailRecords before the base is
	// ErrCompacted, at the base it is the (empty) tail.
	if _, err := store.TailRecords(3); !errors.Is(err, ErrCompacted) {
		t.Fatalf("TailRecords(3) err = %v, want ErrCompacted", err)
	}
	if got, err := store.TailRecords(12); err != nil || len(got) != 0 {
		t.Fatalf("TailRecords(12) = %v, %v; want empty, nil", got, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the compacted dir is still byte-identical.
	store2, st, tail, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := EncodeState(st); !bytes.Equal(got, exports[12]) {
		t.Fatal("recovery from compacted dir is not byte-identical")
	}
	if len(tail) != 0 {
		t.Fatalf("tail after full compaction has %d records, want 0", len(tail))
	}
}

// A crash between writing the snapshot and resetting the log leaves both the
// full log and the snapshot on disk; recovery must not double-apply.
func TestStoreRecoverySkipsRecordsCoveredBySnapshot(t *testing.T) {
	recs, exports := testHistory(t, 10)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), EncodeLog(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	snapAt := uint64(6)
	snapName := fmt.Sprintf("snap-%016x.snap", snapAt)
	if err := os.WriteFile(filepath.Join(dir, snapName), exports[snapAt], 0o644); err != nil {
		t.Fatal(err)
	}
	store, st, tail, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := EncodeState(st); !bytes.Equal(got, exports[len(recs)]) {
		t.Fatal("snapshot+overlapping-log recovery is not byte-identical to the full replay")
	}
	if len(tail) != len(recs)-int(snapAt) {
		t.Fatalf("tail has %d records, want %d (only those past the snapshot)", len(tail), len(recs)-int(snapAt))
	}
}

// A corrupt latest snapshot must not lose the catalog: recovery falls back
// to an older snapshot (or the empty state) and replays the log.
func TestStoreRecoveryFallsBackPastCorruptSnapshot(t *testing.T) {
	recs, exports := testHistory(t, 8)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), EncodeLog(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	good := exports[4]
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", 4)), good, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), exports[7]...)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", 7)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	store, st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := EncodeState(st); !bytes.Equal(got, exports[len(recs)]) {
		t.Fatal("recovery with a corrupt latest snapshot is not byte-identical to the full replay")
	}
}

func TestStateApplyRejectsBrokenChain(t *testing.T) {
	st := &State{}
	tab := testTable(1)
	if err := st.Apply(&Record{Kind: KindPut, Version: 2, Name: "A", Table: tab}); err == nil {
		t.Error("version gap must be rejected")
	}
	if err := st.Apply(&Record{Kind: KindDelete, Version: 1, Name: "ghost"}); err == nil {
		t.Error("delete of an unknown table must be rejected")
	}
	if err := st.Apply(&Record{Kind: Kind(9), Version: 1, Name: "A"}); err == nil {
		t.Error("unknown kind must be rejected")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0xff},
		bytes.Repeat([]byte{0xff}, 64),
		append(append([]byte(nil), snapMagic...), 0xff, 0xff, 0xff, 0xff),
	}
	for i, data := range cases {
		if _, err := DecodeRecord(data); err == nil {
			t.Errorf("case %d: DecodeRecord accepted garbage", i)
		}
		if _, err := DecodeState(data); err == nil {
			t.Errorf("case %d: DecodeState accepted garbage", i)
		}
	}
	// A log with a corrupted magic is an explicit error, not a silent reset.
	badLog := append([]byte(nil), EncodeLog(nil)...)
	badLog[0] ^= 0xff
	if _, _, err := ScanRecords(badLog); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad log magic: err = %v, want ErrCorrupt", err)
	}
}

// A directory written in an earlier format version is refused with
// ErrFormat, not read as corrupt — that would silently fall back to an older
// snapshot or the empty state — and its files stay byte-for-byte as they
// were. The fixtures are the golden log and last snapshot of format 1.
func TestOpenRefusesOtherFormat(t *testing.T) {
	oldLog, err := os.ReadFile(filepath.Join("testdata", "format1", "workload.wal"))
	if err != nil {
		t.Fatal(err)
	}
	oldSnap, err := os.ReadFile(filepath.Join("testdata", "format1", "snap-08.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ScanRecords(oldLog); !errors.Is(err, ErrFormat) {
		t.Fatalf("ScanRecords of a format-1 log: err = %v, want ErrFormat", err)
	}
	if _, err := DecodeState(oldSnap); !errors.Is(err, ErrFormat) {
		t.Fatalf("DecodeState of a format-1 snapshot: err = %v, want ErrFormat", err)
	}
	snapName := fmt.Sprintf("snap-%016x.snap", 8)
	cases := map[string]map[string][]byte{
		"log":                  {"wal.log": oldLog},
		"snapshot":             {snapName: oldSnap},
		"log and snapshot":     {"wal.log": oldLog, snapName: oldSnap},
		"snapshot, new log":    {"wal.log": EncodeLog(nil), snapName: oldSnap},
		"log, newer snapshot":  {"wal.log": oldLog, fmt.Sprintf("snap-%016x.snap", 9): EncodeState(&State{Version: 9})},
		"old beside corrupted": {snapName: oldSnap, fmt.Sprintf("snap-%016x.snap", 9): []byte("USNP\x00\x00\x00\x02garbage")},
	}
	for name, files := range cases {
		dir := t.TempDir()
		for f, data := range files {
			if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if store, _, _, err := Open(dir, Options{}); !errors.Is(err, ErrFormat) {
			if store != nil {
				store.Close()
			}
			t.Errorf("%s: Open err = %v, want ErrFormat", name, err)
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(files) {
			t.Errorf("%s: %d files after Open, want %d", name, len(entries), len(files))
		}
		for f, want := range files {
			if got, err := os.ReadFile(filepath.Join(dir, f)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: Open changed %s", name, f)
			}
		}
	}
}
