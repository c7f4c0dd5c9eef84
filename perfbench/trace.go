package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanName says what a span timed. Spans store it as a small integer,
// so a span holds no pointers and the GC never scans span buffers.
type spanName uint8

const (
	spanClientPhase spanName = iota
	spanClientGet
	spanClientPut
	spanClientScan
	spanReplayClient
	spanReplayShardGet1g
	spanReplayShardGet2g
	spanShardSetRetrieveAppend
	spanReplayDeviceGet
	spanReplayCoreLookup
	spanReplayShardScan
	spanShardSetIterate
	spanReplayHopscotchGet
	spanReplayHopscotchEncode
	spanReplayHopscotchDecode
	spanReplayKvwireEncode
	spanReplayKvwireDecode
	spanReplayMetricsRecord2g
	spanReplayShardPut
	spanShardSetStore
	spanReplayWal
	spanWalLogAppend
	spanWalLogSync
	spanWalLogReplay
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanClientPhase:            "client.phase",
	spanClientGet:              "client.Get",
	spanClientPut:              "client.Put",
	spanClientScan:             "client.Scan",
	spanReplayClient:           "replay.client",
	spanReplayShardGet1g:       "replay.shard.get_1g",
	spanReplayShardGet2g:       "replay.shard.get_2g",
	spanShardSetRetrieveAppend: "shard.Set.RetrieveAppend",
	spanReplayDeviceGet:        "replay.device.get",
	spanReplayCoreLookup:       "replay.core.lookup",
	spanReplayShardScan:        "replay.shard.scan",
	spanShardSetIterate:        "shard.Set.Iterate",
	spanReplayHopscotchGet:     "replay.hopscotch.get",
	spanReplayHopscotchEncode:  "replay.hopscotch.encode",
	spanReplayHopscotchDecode:  "replay.hopscotch.decode",
	spanReplayKvwireEncode:     "replay.kvwire.encode",
	spanReplayKvwireDecode:     "replay.kvwire.decode",
	spanReplayMetricsRecord2g:  "replay.metrics.record_2g",
	spanReplayShardPut:         "replay.shard.put",
	spanShardSetStore:          "shard.Set.Store",
	spanReplayWal:              "replay.wal",
	spanWalLogAppend:           "wal.Log.Append",
	spanWalLogSync:             "wal.Log.Sync",
	spanWalLogReplay:           "wal.Log.Replay",
}

// span is one timed call the benchmark made into a module: name, start
// and end (ns since the tracer started), the span that caused it, and
// the request (op index, or call count for a loop span) it served.
type span struct {
	id, parent uint64
	req        uint64
	start, end int64
	name       spanName
}

// Spans are stored in fixed-size chunks, so recording never copies the
// spans already kept. maxSpansPerBuf bounds the memory one goroutine's
// spans may take; spans past it are counted, not kept.
const (
	spanChunk      = 1 << 13
	maxSpansPerBuf = 1 << 20
)

// tracer keeps spans in memory until the run ends. Each goroutine
// records into its own spanBuf, so tracing adds no shared writes to the
// measured loops. A nil *tracer records nothing.
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	bufs []*spanBuf
}

type spanBuf struct {
	t       *tracer
	idx     uint64
	chunks  [][]span
	n       int
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// buf returns a new span buffer for one goroutine.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, idx: uint64(len(t.bufs) + 1)}
	t.bufs = append(t.bufs, b)
	return b
}

// now reports the tracer clock.
func (b *spanBuf) now() int64 {
	if b == nil {
		return 0
	}
	return int64(time.Since(b.t.t0))
}

// at converts a wall-clock instant to the tracer clock.
func (b *spanBuf) at(t time.Time) int64 { return int64(t.Sub(b.t.t0)) }

// open starts a span whose children are recorded before it ends; close
// sets its end.
func (b *spanBuf) open(name spanName, parent, req uint64) uint64 {
	if b == nil {
		return 0
	}
	return b.add(name, parent, req, b.now(), -1)
}

func (b *spanBuf) close(id uint64) {
	if b == nil || id == 0 {
		return
	}
	i := int(id&(1<<40-1)) - 1
	b.chunks[i/spanChunk][i%spanChunk].end = b.now()
}

// add records a finished span and returns its ID (0 when not kept).
func (b *spanBuf) add(name spanName, parent, req uint64, start, end int64) uint64 {
	if b == nil {
		return 0
	}
	if b.n >= maxSpansPerBuf {
		b.dropped++
		return 0
	}
	if b.n%spanChunk == 0 {
		b.chunks = append(b.chunks, make([]span, 0, spanChunk))
	}
	b.n++
	id := b.idx<<40 | uint64(b.n)
	c := &b.chunks[len(b.chunks)-1]
	*c = append(*c, span{id: id, parent: parent, name: name, req: req, start: start, end: end})
	return id
}

// each calls f for every kept span.
func (t *tracer) each(f func(*span)) {
	for _, b := range t.bufs {
		for _, c := range b.chunks {
			for i := range c {
				f(&c[i])
			}
		}
	}
}

// durations returns the durations (ns) of every kept span named name.
func (t *tracer) durations(name spanName) []int64 {
	if t == nil {
		return nil
	}
	var out []int64
	t.each(func(s *span) {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	})
	return out
}

// write dumps every span as tab-separated text, one per line.
func (t *tracer) write(path string) (kept int, dropped int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\treq\tstart_ns\tend_ns")
	t.each(func(s *span) {
		fmt.Fprintf(w, "%x\t%x\t%s\t%d\t%d\t%d\n", s.id, s.parent, spanNames[s.name], s.req, s.start, s.end)
	})
	for _, b := range t.bufs {
		kept += b.n
		dropped += b.dropped
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return kept, dropped, err
	}
	return kept, dropped, f.Close()
}

// quantile is a percentile taken exactly from raw samples by nearest
// rank, with the number of samples that lie beyond it.
type quantile struct {
	value  int64
	n      int
	beyond int
}

// percentile sorts samples in place and returns its p-th percentile.
func percentile(samples []int64, p float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(p / 100 * float64(n))
	if float64(rank) < p/100*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return quantile{value: samples[rank-1], n: n, beyond: n - rank}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
