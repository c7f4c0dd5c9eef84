package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/shard"
)

// timed is the timed client phase: what the clients measured, plus the
// store's counters and simulated clock on both sides of it.
type timed struct {
	*phaseResult  // every segment merged
	segs          []*phaseResult
	traced        []*phaseResult // traced runs: the traced segments
	before, after shard.Stats
	simElapsed    time.Duration
	heapSetUp     uint64 // in-use heap bytes after set-up and a GC
}

// segment is the length of one timed segment. Each segment runs on
// freshly dialed connections: how the client's and the server's
// goroutines happen to land on the two CPUs moves a connection's
// throughput by several percent for its whole life, so the end-to-end
// figures are medians over segments rather than one long draw.
const segment = time.Second

// timedPhase runs the clients on a set-up stack for dur, as dur/segment
// segments; segment i replays op stream seg0+i. Counters are taken as deltas across the phase, after
// ResetOpStats, so nothing from set-up or warm-up is counted. With tr
// non-nil the first half of the segments runs untraced and the second
// half replays the same op streams traced, so the tracing overhead can
// be read off the two halves.
func timedPhase(st *stack, seed int64, seg0 int, dur time.Duration, tr *tracer, chk *checker) (*timed, error) {
	// Start every phase from a collected heap. read-cold holds ~700 MB
	// live, so whether a GC cycle fell inside its phase would otherwise
	// depend on where set-up left the pacer.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.set.ResetOpStats()
	w := &timed{before: st.set.Stats(), heapSetUp: ms.HeapAlloc}
	sim0 := st.set.Elapsed()
	n := max(int(dur/segment), 1)
	runSeg := func(i int, tr *tracer) (*phaseResult, error) {
		if err := st.redial(); err != nil {
			return nil, fmt.Errorf("redial: %w", err)
		}
		lim := clientLimits{until: time.Now().Add(dur / time.Duration(n))}
		p := runClients(st, streamSeed(seed, 1+seg0+i), writerTimed, lim, tr, chk)
		if p.err != nil {
			return nil, fmt.Errorf("timed segment %d: %w", i, p.err)
		}
		if p.ops == 0 {
			return nil, fmt.Errorf("timed segment %d completed no operations", i)
		}
		return p, nil
	}
	plain := n
	if tr != nil {
		plain = max(n/2, 1)
	}
	for i := 0; i < plain; i++ {
		p, err := runSeg(i, nil)
		if err != nil {
			return nil, err
		}
		w.segs = append(w.segs, p)
	}
	for i := 0; tr != nil && i < plain; i++ {
		p, err := runSeg(i, tr)
		if err != nil {
			return nil, err
		}
		w.traced = append(w.traced, p)
	}
	w.phaseResult = merge(append(append([]*phaseResult(nil), w.segs...), w.traced...))
	w.simElapsed = time.Duration(st.set.Elapsed() - sim0)
	w.after = st.set.Stats()
	if w.simElapsed <= 0 {
		return nil, errors.New("timed phase advanced no simulated time")
	}
	return w, nil
}

// segFigures returns each segment's ops/s and the p50 and p90 (in us)
// of its read operation. A segment with fewer than 10 read samples
// beyond its p90 is an error.
func segFigures(segs []*phaseResult, read opKind) (rates, p50s, p90s []float64, err error) {
	for i, seg := range segs {
		q50, q90 := percentile(seg.lat[read], 50), percentile(seg.lat[read], 90)
		if q90.beyond < 10 {
			return nil, nil, nil, fmt.Errorf("segment %d: %d %s samples are too few for a p90", i, q90.n, kindNames[read])
		}
		rates = append(rates, seg.opsPerSec())
		p50s = append(p50s, float64(q50.value)/1e3)
		p90s = append(p90s, float64(q90.value)/1e3)
	}
	return rates, p50s, p90s, nil
}

// finish shuts the stack down. With a WAL it then reopens the store
// from the log alone and checks that every acknowledged PUT reads back.
func finish(st *stack, chk *checker, rep *report) error {
	if err := st.shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if !st.spec.wal {
		return nil
	}
	t0 := time.Now()
	set, err := rhik.OpenSet(st.spec.options(st.walDir))
	if err != nil {
		return fmt.Errorf("reopen from WAL: %w", err)
	}
	reopen := time.Since(t0)
	checked := verifyDurable(set, st, chk)
	if err := set.Close(); err != nil {
		return fmt.Errorf("close after reopen: %w", err)
	}
	rep.info = append(rep.info, fmt.Sprintf("reopen from WAL %.3fs, %d keys read back", reopen.Seconds(), checked))
	return nil
}

// verifyDurable reads back every key the run wrote. A key must hold a
// well-formed value for itself, written by an acknowledged PUT (or the
// preload) that no other acknowledged PUT of the key strictly follows:
// the value's PUT must not have been acknowledged before the latest PUT
// of that key was sent.
func verifyDurable(set *shard.Set, st *stack, chk *checker) int64 {
	type stamp struct {
		writer uint8
		seq    uint32
	}
	byStamp := make(map[stamp]putRec, len(st.puts))
	latest := make(map[uint64]int64)
	for _, p := range st.puts {
		byStamp[stamp{p.writer, p.seq}] = p
		if p.start > latest[p.id] {
			latest[p.id] = p.start
		}
	}
	ids := make([]uint64, 0, st.spec.records)
	for id := uint64(0); id < st.spec.records; id++ {
		ids = append(ids, id)
	}
	for id := range latest {
		if id >= st.spec.records {
			ids = append(ids, id)
		}
	}
	var failed int64
	var key, buf []byte
	for _, id := range ids {
		key = appendKey(key[:0], id)
		v, err := set.RetrieveAppend(buf[:0], key)
		if err != nil {
			failed++
			chk.fail("reopen: GET %s: %v", key, err)
			continue
		}
		buf = v
		got, ok := checkValue(v, id, st.spec.valueSize, true)
		if ok {
			last, written := latest[id]
			if got.writer == writerPreload {
				ok = !written
			} else {
				p, found := byStamp[stamp{got.writer, got.seq}]
				ok = found && p.id == id && p.end >= last
			}
		}
		if !ok {
			failed++
			chk.fail("reopen: %s reads back a stale or unknown value (writer %d seq %d)", key, got.writer, got.seq)
		}
	}
	chk.add(int64(len(ids)), failed)
	return int64(len(ids))
}
