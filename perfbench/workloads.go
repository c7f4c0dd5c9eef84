package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/workload"
)

// spec is one benchmark workload: a YCSB core mix over a preloaded key
// space, plus the store options it departs from the shipped defaults on.
type spec struct {
	name      string
	ycsb      string // YCSB core workload letter
	records   uint64 // preloaded key IDs [0, records)
	valueSize int
	cache     int64 // index-cache budget in bytes (0 = shipped default)
	wal       bool  // attach a WAL (fsync "none"; see options)
	prefixLen int   // iterator-mode signature prefix (0 = off)
	scanLimit int   // entries per SCAN
	warmup    int64 // closed-loop warm-up ops (all clients) after preload
}

var specs = []spec{
	{name: "read-hot", ycsb: "b", records: 100_000, valueSize: 128, warmup: 4000},
	{name: "read-cold", ycsb: "c", records: 100_000, valueSize: 128, cache: 640 << 10, warmup: 4000},
	{name: "update-durable", ycsb: "a", records: 100_000, valueSize: 1024, wal: true, warmup: 4000},
	// A SCAN sweeps a prefix group and costs about 25 GETs: 500 of them
	// still warm up for longer than 4000 point operations do.
	{name: "scan", ycsb: "e", records: 100_000, valueSize: 128,
		prefixLen: workload.DefaultScanPrefixLen, scanLimit: 16, warmup: 500},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// Writer IDs stamped into values: who wrote a value is part of what a
// read checks.
const (
	writerPreload = 0
	writerWarmup  = 1 // warm-up clients use 1 and 2
	writerTimed   = 3 // timed-phase clients use 3 and 4
	writerReplay  = 5 // traced shard-layer PUT replay
	numWriters    = 6
)

// valueHeader is the self-describing prefix of every value: key ID,
// writer and the writer's sequence number.
const valueHeader = 16

// appendValue appends the value a writer stores as its seq-th write of
// key id. Bytes past the header are a filler derived from all three, so
// a read can verify the whole value, not just its header.
func appendValue(dst []byte, id uint64, writer uint8, seq uint32, size int) []byte {
	var hdr [valueHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], id)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(writer)<<32|uint64(seq))
	dst = append(dst, hdr[:]...)
	f := byte(id*31 + uint64(seq)*7 + uint64(writer))
	for i := valueHeader; i < size; i++ {
		dst = append(dst, f+byte(i))
	}
	return dst
}

// valueStamp is what a value says about its own origin.
type valueStamp struct {
	id     uint64
	writer uint8
	seq    uint32
}

// checkValue reports whether v is a well-formed value written for key id
// and, if so, who wrote it. full also verifies the filler bytes.
func checkValue(v []byte, id uint64, size int, full bool) (valueStamp, bool) {
	if len(v) != size || size < valueHeader {
		return valueStamp{}, false
	}
	st := valueStamp{id: binary.LittleEndian.Uint64(v[0:])}
	ws := binary.LittleEndian.Uint64(v[8:])
	st.writer, st.seq = uint8(ws>>32), uint32(ws)
	if st.id != id || ws>>40 != 0 || st.writer >= numWriters {
		return st, false
	}
	if full {
		f := byte(id*31 + uint64(st.seq)*7 + uint64(st.writer))
		for i := valueHeader; i < size; i++ {
			if v[i] != f+byte(i) {
				return st, false
			}
		}
	}
	return st, true
}

const hexDigits = "0123456789abcdef"

// appendKey renders key id exactly as workload.KeyBytes does ("k" and 15
// hex digits) without allocating.
func appendKey(dst []byte, id uint64) []byte {
	dst = append(dst, 'k')
	for shift := 56; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(id>>uint(shift))&0xf])
	}
	return dst
}

// parseKey inverts appendKey.
func parseKey(k []byte) (uint64, bool) {
	if len(k) != 16 || k[0] != 'k' {
		return 0, false
	}
	var id uint64
	for _, c := range k[1:] {
		d := bytes.IndexByte([]byte(hexDigits), c)
		if d < 0 {
			return 0, false
		}
		id = id<<4 | uint64(d)
	}
	return id, true
}

// scanEntry is the part of a scan result checkScan looks at.
type scanEntry struct{ key, value []byte }

// checkScan verifies one prefix scan started at key id: entries are
// strictly sorted, share the prefix, are at most limit long, carry
// well-formed values for their keys, and begin with exactly the
// preloaded keys of the group (inserted keys sort after them), so no
// preloaded key is skipped.
func checkScan(s spec, id uint64, entries []scanEntry, limit int) bool {
	if len(entries) > limit {
		return false
	}
	groupBits := uint(4 * (16 - s.prefixLen))
	base := id >> groupBits << groupBits
	want := uint64(limit)
	switch {
	case base >= s.records:
		want = 0
	case base+want > s.records:
		want = s.records - base
	}
	if uint64(len(entries)) < want {
		return false
	}
	var prev uint64
	for i, e := range entries {
		eid, ok := parseKey(e.key)
		if !ok || eid>>groupBits != id>>groupBits || (i > 0 && eid <= prev) {
			return false
		}
		if uint64(i) < want && eid != base+uint64(i) {
			return false
		}
		if _, ok := checkValue(e.value, eid, s.valueSize, true); !ok {
			return false
		}
		prev = eid
	}
	return true
}
