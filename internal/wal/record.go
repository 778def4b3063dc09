package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk framing: every record — WAL entries and snapshot payloads alike —
// is one frame of
//
//	| length uint32 LE | crc32c(payload) uint32 LE | payload |
//
// The CRC is Castagnoli (the polynomial with hardware support on both amd64
// and arm64), computed over the payload only; the length field is validated
// by bounds instead. A reader walks frames until the bytes run out or a
// frame fails validation — everything from that point on is the torn tail a
// crashed writer may leave, and recovery truncates it rather than guess.

const (
	headerSize = 8
	// maxRecord bounds a single record. A length field beyond it is treated
	// as corruption, which stops a flipped length byte from swallowing the
	// rest of the segment as one giant bogus record.
	maxRecord = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the frame encoding of payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// scanFrames walks the frames of one segment and returns the decoded
// payloads plus the byte length of the valid prefix. Scanning stops — never
// errors — at the first frame that is truncated, oversized, or fails its
// CRC: that boundary is where recovery truncates. Payloads alias data.
func scanFrames(data []byte) (recs [][]byte, valid int64) {
	off := int64(0)
	for int64(len(data))-off >= headerSize {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if n > maxRecord || off+headerSize+n > int64(len(data)) {
			break
		}
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		payload := data[off+headerSize : off+headerSize+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			break
		}
		recs = append(recs, payload)
		off += headerSize + n
	}
	return recs, off
}

// segment file naming: wal-<gen> holds the records appended after snapshot
// generation <gen> was cut; snap-<gen> is that generation's snapshot (one
// frame). Generation numbers are zero-padded so lexical order is numeric
// order.

func walName(gen uint64) string  { return fmt.Sprintf("wal-%016d", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("snap-%016d", gen) }

// parseGen extracts the generation from a wal-/snap- file name; ok is false
// for anything else (tmp files, strays).
func parseGen(name string) (prefix string, gen uint64, ok bool) {
	var g uint64
	if n, err := fmt.Sscanf(name, "wal-%016d", &g); err == nil && n == 1 && name == walName(g) {
		return "wal", g, true
	}
	if n, err := fmt.Sscanf(name, "snap-%016d", &g); err == nil && n == 1 && name == snapName(g) {
		return "snap", g, true
	}
	return "", 0, false
}
