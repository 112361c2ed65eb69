package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode locks down the totality of the record, snapshot and log
// decoders, and through them the script parser: arbitrary bytes never
// panic, anything that decodes re-encodes to a fixed point (encode ∘ decode
// is idempotent — the canonical-form property the golden tests rely on), and
// a log scan never claims more bytes than it was given.
func FuzzWALDecode(f *testing.F) {
	recs, exports := testHistory(f, 6)
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(append([]byte(nil), logMagic...))
	f.Add(append([]byte(nil), snapMagic...))
	for _, rec := range recs {
		f.Add(EncodeRecord(rec))
	}
	f.Add(EncodeLog(recs))
	f.Add(exports[len(exports)-1])
	// A frame whose payload was mutated after checksumming: the scan must
	// reject it.
	damaged := EncodeLog(recs[:1])
	damaged[len(damaged)-1] ^= 0xff
	f.Add(damaged)

	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := DecodeRecord(data); err == nil {
			e1 := EncodeRecord(rec)
			rec2, err := DecodeRecord(e1)
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			if e2 := EncodeRecord(rec2); !bytes.Equal(e1, e2) {
				t.Fatal("encode ∘ decode is not a fixed point for records")
			}
		}
		if st, err := DecodeState(data); err == nil {
			e1 := EncodeState(st)
			st2, err := DecodeState(e1)
			if err != nil {
				t.Fatalf("re-encoded state does not decode: %v", err)
			}
			if e2 := EncodeState(st2); !bytes.Equal(e1, e2) {
				t.Fatal("encode ∘ decode is not a fixed point for states")
			}
		}
		scanned, validLen, err := ScanRecords(data)
		if err != nil {
			return // bad magic: explicit error, no prefix to check
		}
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d out of range [0, %d]", validLen, len(data))
		}
		// The valid prefix must itself scan to the same records: recovery
		// after truncating the tail sees exactly what the first scan saw.
		again, againLen, err := ScanRecords(data[:validLen])
		if err != nil || againLen != validLen || len(again) != len(scanned) {
			t.Fatalf("re-scan of the valid prefix disagrees: %d records / %d bytes / %v, want %d / %d",
				len(again), againLen, err, len(scanned), validLen)
		}
		// Scanned records form a contiguous version chain — the invariant
		// State.Apply relies on.
		for i := 1; i < len(scanned); i++ {
			if scanned[i].Version != scanned[i-1].Version+1 {
				t.Fatalf("scan returned a version gap: %d after %d", scanned[i].Version, scanned[i-1].Version)
			}
		}
	})
}
