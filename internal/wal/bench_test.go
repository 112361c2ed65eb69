package wal

import (
	"fmt"
	"testing"
)

// benchAppend measures one durable catalog mutation (encode + frame + write,
// optionally fsync, with compaction every snapshotEvery records) — the
// overhead -data-dir adds to every PutTable. EXPERIMENTS.md E17 reports the
// same path via cmd/benchreport -only=e17.
func benchAppend(b *testing.B, opts Options) {
	store, _, _, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	tab := testTable(1)
	live := &State{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := &Record{Kind: KindPut, Version: uint64(i + 1), Name: "Bench", Probabilistic: true, Table: tab}
		if err := live.Apply(rec); err != nil {
			b.Fatal(err)
		}
		if err := store.Append(rec, func() *State { return live }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	b.Run("nosync", func(b *testing.B) { benchAppend(b, Options{SnapshotEvery: -1}) })
	b.Run("fsync", func(b *testing.B) { benchAppend(b, Options{SnapshotEvery: -1, Fsync: true}) })
	b.Run("compact64", func(b *testing.B) { benchAppend(b, Options{SnapshotEvery: 64}) })
}

// BenchmarkEncodeTable isolates the cost of rendering a put record (the
// table's canonical script) from the I/O.
func BenchmarkEncodeTable(b *testing.B) {
	for i := 0; i < 3; i++ {
		rec := &Record{Kind: KindPut, Version: 1, Name: "Bench", Table: testTable(i)}
		b.Run(fmt.Sprintf("shape%d", i), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				EncodeRecord(rec)
			}
		})
	}
}
