package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SegmentInfo describes one file of a store directory as the inspector saw
// it.
type SegmentInfo struct {
	Name       string
	Gen        uint64
	Records    int   // valid frames
	ValidBytes int64 // length of the valid prefix
	TotalBytes int64
	Torn       bool // a segment with bytes past the valid prefix; a snapshot with no valid first frame
	Replayed   bool // recovery would use this file
}

// Report is the read-only analysis of a WAL+snapshot directory: what
// recovery loads, what it drops, and where the corruption (if any) sits.
// Inspect never mutates the directory; Open applies the report — tmp
// cleanup, truncation — and serves from it.
type Report struct {
	Dir       string
	Gen       uint64 // snapshot generation recovery would choose
	Snapshot  []byte // its payload (nil if none)
	Records   [][]byte
	Snapshots []SegmentInfo
	Segments  []SegmentInfo
	TornBytes int64 // bytes recovery would drop
	Strays    []string
}

// Valid reports whether recovery would drop nothing: the newest snapshot
// parses and no replayed segment carries a torn tail.
func (r *Report) Valid() bool { return r.TornBytes == 0 }

// Render formats the report for humans.
func (r *Report) Render(verbose bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "wal: %s\n", r.Dir)
	for _, s := range r.Snapshots {
		fmt.Fprintf(&b, "  %s  %8d bytes  %s%s\n", s.Name, s.TotalBytes, mark(s), replayed(s))
	}
	for _, s := range r.Segments {
		fmt.Fprintf(&b, "  %s  %8d bytes  %5d records  %s%s\n",
			s.Name, s.TotalBytes, s.Records, mark(s), replayed(s))
		if s.Torn {
			fmt.Fprintf(&b, "    torn tail: last valid offset %d, %d bytes dropped\n",
				s.ValidBytes, s.TotalBytes-s.ValidBytes)
		}
	}
	for _, s := range r.Strays {
		fmt.Fprintf(&b, "  %s  (stray; ignored)\n", s)
	}
	snap := "none"
	if r.Snapshot != nil {
		snap = fmt.Sprintf("gen %d, %d bytes", r.Gen, len(r.Snapshot))
	}
	fmt.Fprintf(&b, "recovery: snapshot %s, %d records, %d torn bytes\n",
		snap, len(r.Records), r.TornBytes)
	if verbose {
		for i, rec := range r.Records {
			fmt.Fprintf(&b, "  #%d %s\n", i+1, string(rec))
		}
	}
	return b.String()
}

func mark(s SegmentInfo) string {
	if s.Torn {
		return "CORRUPT"
	}
	return "ok"
}

func replayed(s SegmentInfo) string {
	if s.Replayed {
		return ""
	}
	return " (not replayed)"
}

// Inspect analyzes dir without modifying it. It is the one statement of the
// recovery rules — Open applies what it reports. A snapshot is its first
// frame; the newest one that has a valid first frame wins, and the corrupt
// ones newer than it are dropped whole. Segments at or after the chosen
// generation are replayed in order. Only the last may legitimately have a
// torn tail (a crash mid append); an invalid frame in an earlier one means
// external corruption, and everything past it — including whole later
// segments — is untrusted and dropped so the append order stays consistent.
func Inspect(dir string) (*Report, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	r := &Report{Dir: dir}
	var snapGens, walGens []uint64
	for _, e := range entries {
		prefix, g, ok := parseGen(e.Name())
		if !ok {
			r.Strays = append(r.Strays, e.Name())
			continue
		}
		if prefix == "snap" {
			snapGens = append(snapGens, g)
		} else {
			walGens = append(walGens, g)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	r.Snapshots = make([]SegmentInfo, len(snapGens))
	for i := len(snapGens) - 1; i >= 0; i-- { // newest first
		g := snapGens[i]
		data, err := os.ReadFile(filepath.Join(dir, snapName(g)))
		if err != nil {
			return nil, err
		}
		recs, valid := scanFrames(data)
		info := SegmentInfo{Name: snapName(g), Gen: g, TotalBytes: int64(len(data)), ValidBytes: valid,
			Records: len(recs), Torn: len(recs) == 0}
		switch {
		case r.Snapshot != nil: // older than the chosen one: a fallback recovery does not touch; reported, not counted
		case info.Torn:
			r.TornBytes += info.TotalBytes
		default:
			r.Gen, r.Snapshot, info.Replayed = g, recs[0], true
		}
		r.Snapshots[i] = info
	}

	corrupt := false
	for _, g := range walGens {
		data, err := os.ReadFile(filepath.Join(dir, walName(g)))
		if err != nil {
			return nil, err
		}
		recs, valid := scanFrames(data)
		info := SegmentInfo{Name: walName(g), Gen: g, TotalBytes: int64(len(data)), ValidBytes: valid,
			Records: len(recs), Torn: valid < int64(len(data))}
		if g >= r.Gen && !corrupt {
			info.Replayed = true
			r.Records = append(r.Records, recs...)
			if info.Torn {
				r.TornBytes += info.TotalBytes - valid
				corrupt = true
			}
		} else if g >= r.Gen {
			// Past the first corrupted segment: dropped wholesale.
			r.TornBytes += info.TotalBytes
		}
		r.Segments = append(r.Segments, info)
	}
	return r, nil
}
