package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"

	"uncertaindb/internal/parser"
)

// logMagic heads every log file; the trailing byte is the format version.
var logMagic = []byte{'U', 'W', 'A', 'L', 0, 0, 0, 2}

// frameHeaderSize is the per-record framing overhead: a little-endian uint32
// payload length followed by a little-endian uint32 CRC32 of the payload.
const frameHeaderSize = 8

// maxFrameSize bounds one record's payload; it exists so a corrupt length
// prefix cannot drive a giant allocation. It equals the parser's line bound,
// so any row a frame holds parses back.
const maxFrameSize = parser.MaxLineBytes

// Checksum is the checksum every durable and wire artifact of this package
// shares: log frames, snapshot files, and the replication snapshot payload
// served over HTTP all use CRC-32/IEEE, so a leader and a follower agree on
// what "intact" means without a second algorithm.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// AppendFrame appends one framed record payload: length, CRC, payload.
func AppendFrame(b, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], Checksum(payload))
	b = append(b, hdr[:]...)
	return append(b, payload...)
}

// ScanRecords walks the framed records of a log byte image and returns every
// record of the longest valid prefix, together with the byte length of that
// prefix. A record is valid when its frame is complete, its CRC matches, its
// payload parses, and its version extends the previous record's by exactly
// one; the first invalid record is treated as the torn tail — it and
// everything after it are excluded. A log of another format version is
// ErrFormat. ScanRecords never panics and never returns a partially applied
// record.
func ScanRecords(data []byte) (recs []*Record, validLen int, err error) {
	if len(data) < len(logMagic) {
		// A file shorter than the header is the torn beginning of a fresh
		// log: nothing recoverable, nothing wrong.
		return nil, 0, nil
	}
	if err := checkMagic(data, logMagic, "log"); err != nil {
		return nil, 0, err
	}
	off := len(logMagic)
	var prevVersion uint64
	for {
		if off+frameHeaderSize > len(data) {
			return recs, off, nil // torn or absent frame header
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxFrameSize || off+frameHeaderSize+int(n) > len(data) {
			return recs, off, nil // torn payload
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+int(n)]
		if Checksum(payload) != sum {
			return recs, off, nil // corrupt payload
		}
		rec, decErr := DecodeRecord(payload)
		if decErr != nil {
			return recs, off, nil // framing survived but the payload did not
		}
		if prevVersion != 0 && rec.Version != prevVersion+1 {
			return recs, off, nil // broken version chain
		}
		prevVersion = rec.Version
		recs = append(recs, rec)
		off += frameHeaderSize + int(n)
	}
}

// Log is an append-only record log backed by one file. It is not
// concurrency-safe on its own; the Store serializes access.
type Log struct {
	f    *os.File
	path string
}

// OpenLog opens (or creates) the log at path, truncating a torn tail, and
// returns the valid records. The returned log is positioned for appending.
func OpenLog(path string) (*Log, []*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	recs, validLen, err := ScanRecords(data)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if validLen < len(logMagic) {
		// Fresh or torn-before-header file: start it over.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Write(logMagic); err != nil {
			f.Close()
			return nil, nil, err
		}
	} else if validLen < len(data) {
		if err := f.Truncate(int64(validLen)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{f: f, path: path}, recs, nil
}

// Append writes one framed record in a single write call and optionally
// fsyncs. A frame is either fully on disk or recognizably torn — recovery
// discards a torn tail by construction.
func (l *Log) Append(rec *Record, sync bool) error {
	frame := AppendFrame(nil, EncodeRecord(rec))
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	if sync {
		return l.f.Sync()
	}
	return nil
}

// Reset truncates the log back to its header, dropping every record (used
// after a snapshot has made them redundant).
func (l *Log) Reset() error {
	if err := l.f.Truncate(int64(len(logMagic))); err != nil {
		return err
	}
	_, err := l.f.Seek(0, 2)
	return err
}

// Sync flushes the log to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close syncs and closes the log file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
