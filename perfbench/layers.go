package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hopscotch"
	"repro/internal/kvwire"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/wal"
)

// How much of the traced op stream each layer replays.
const (
	replayGets  = 20000
	replayPuts  = 2000
	replayScans = 1000
	walRecords  = 2000
	hopLookups  = 200000
	hopRounds   = 2000
	recordN     = 500000 // ConcurrentHistogram.Record calls per goroutine
)

// perLayer sets the stack up once, runs the timed phase half untraced
// and half traced, then replays the traced op stream against one module
// at a time on the loaded stack, and reports per-layer metrics. Spans
// are written to workDir/spans-<workload>.tsv.
func perLayer(s spec, seed int64, dur time.Duration, dir string, chk *checker) (*report, error) {
	tr := newTracer()
	st, took, err := setUp(s, filepath.Join(dir, "wal"), seed, chk)
	if err != nil {
		return nil, err
	}
	setup := st.set.Stats()
	w, err := timedPhase(st, seed, 0, dur, tr, chk)
	if err != nil {
		st.shutdown()
		return nil, err
	}
	rep := &report{}
	read := s.readKind()
	plain, p50s, p90s, err := segFigures(w.segs, read)
	if err != nil {
		st.shutdown()
		return nil, err
	}
	var traced []float64
	for _, seg := range w.traced {
		traced = append(traced, seg.opsPerSec())
	}
	rep.info = append(rep.info, fmt.Sprintf("set-up %.3fs; segment ops/s untraced %.0f, traced %.0f", took.Seconds(), plain, traced))
	rep.add("trace.overhead_pct", (median(plain)/median(traced)-1)*100, "%",
		"median untraced vs median traced segment ops/s, same op streams")
	rep.add("client.ops_per_s", median(plain), "1/s", fmt.Sprintf("wall clock, median of %d untraced segments, %d clients", len(plain), numClients))
	rep.add("client.read_p50_us", median(p50s), "us", fmt.Sprintf("%s, median of untraced segment p50s", kindNames[read]))
	rep.add("client.read_p90_us", median(p90s), "us", fmt.Sprintf("%s, median of untraced segment p90s", kindNames[read]))

	l := &layers{st: st, s: s, tr: tr, chk: chk, rep: rep}
	l.stream(merge(w.traced))
	err = l.replay(w, setup, dir)
	if err == nil {
		err = finish(st, chk, rep)
	} else {
		st.shutdown()
	}
	if err != nil {
		return nil, err
	}
	path := filepath.Join(workDir, "spans-"+s.name+".tsv")
	kept, dropped, err := tr.write(path)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.info = append(rep.info, fmt.Sprintf("%d spans written to %s (%d dropped)", kept, path, dropped))
	return rep, nil
}

// layers holds one traced run's replay state.
type layers struct {
	st  *stack
	s   spec
	tr  *tracer
	chk *checker
	rep *report

	ops  []opRec  // the traced half's stream, clients interleaved
	keys [][]byte // ops[i]'s key
}

// stream interleaves the clients' op logs into one replay stream.
func (l *layers) stream(p *phaseResult) {
	for i := 0; ; i++ {
		more := false
		for c := range p.log {
			if i < len(p.log[c]) {
				l.ops = append(l.ops, p.log[c][i])
				more = true
			}
		}
		if !more {
			break
		}
	}
	for _, op := range l.ops {
		l.keys = append(l.keys, appendKey(nil, op.id))
	}
}

// first returns up to n replay ops of the given kinds (all kinds if
// none are given), with their keys.
func (l *layers) first(n int, kinds ...opKind) ([]opRec, [][]byte) {
	var ops []opRec
	var keys [][]byte
	for i, op := range l.ops {
		if len(ops) == n {
			break
		}
		match := len(kinds) == 0
		for _, k := range kinds {
			match = match || op.kind == k
		}
		if match {
			ops = append(ops, op)
			keys = append(keys, l.keys[i])
		}
	}
	return ops, keys
}

func (l *layers) flashReads() int64 {
	var n int64
	for i := 0; i < l.st.set.N(); i++ {
		n += l.st.set.Shard(i).Device().FlashStats().Reads
	}
	return n
}

// timeSpan runs f as one span and returns its wall duration.
func (l *layers) timeSpan(name spanName, req uint64, f func()) time.Duration {
	sb := l.tr.buf()
	t0 := time.Now()
	f()
	t1 := time.Now()
	sb.add(name, 0, req, sb.at(t0), sb.at(t1))
	return t1.Sub(t0)
}

func (l *layers) replay(w *timed, setup shard.Stats, dir string) error {
	s, rep := l.s, l.rep
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	// Client phase: tail latency and the counters the store kept across
	// it. A p99 with fewer than 10 samples beyond it reads 0.
	read := s.readKind()
	for _, m := range []struct {
		name string
		kind opKind
		p    float64
	}{{"client.read_p99_us", read, 99}, {"client.put_p50_us", kindPut, 50}, {"client.put_p99_us", kindPut, 99}} {
		q := percentile(w.lat[m.kind], m.p)
		v := float64(q.value) / 1e3
		if q.beyond < 10 && m.p > 50 {
			v = 0
		}
		rep.add(m.name, v, "us", fmt.Sprintf("%s n=%d beyond=%d", kindNames[m.kind], q.n, q.beyond))
	}
	b, a := &w.before, &w.after
	reads := (a.OptimisticReads - b.OptimisticReads) + (a.FallbackExclusive - b.FallbackExclusive)
	rep.add("shard.optimistic_ratio", ratio(a.OptimisticReads-b.OptimisticReads, reads), "ratio",
		fmt.Sprintf("of %d shard GETs in the client phase", reads))
	rep.add("shard.retries_per_get", ratio(a.OptimisticRetries-b.OptimisticRetries, reads), "count", "")
	rep.add("epoch.pins_per_get", ratio(a.EpochPins-b.EpochPins, reads), "count", "")
	hits, misses := a.Index.Cache.Hits-b.Index.Cache.Hits, a.Index.Cache.Misses-b.Index.Cache.Misses
	rep.add("dram.index_hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("hits=%d misses=%d", hits, misses))
	rep.add("dram.evictions", float64(a.Index.Cache.Evictions-b.Index.Cache.Evictions), "count", "client phase")
	rep.add("nand.reads_per_op", ratio(a.Flash.Reads-b.Flash.Reads, w.ops), "count", "")
	rep.add("nand.programs_per_op", ratio(a.Flash.Programs-b.Flash.Programs, w.ops), "count", "")
	rep.add("ftl.gc_runs", float64(a.Dev.GCRuns), "count", "set-up and client phase")
	rep.add("ftl.write_amp", ratio(a.Flash.WriteBytes-b.Flash.WriteBytes, a.Dev.BytesWritten-b.Dev.BytesWritten), "ratio",
		"flash bytes programmed / user bytes written (0 = no writes)")
	rep.add("flash_reads_per_get", a.MetaPerGet.Mean(), "count", fmt.Sprintf("metadata reads, n=%d GETs", a.MetaPerGet.Count()))
	rep.add("wal.records_per_group", ratio(a.WAL.Records-b.WAL.Records, a.WAL.Groups-b.WAL.Groups), "count",
		fmt.Sprintf("group commit, client phase (0 = no WAL); %d fsyncs", a.WAL.Fsyncs-b.WAL.Fsyncs))
	rep.add("core.resizes", float64(setup.Index.Resizes), "count", "during set-up")
	rep.add("core.resize_halt_ms", float64(setup.Dev.ResizeHalt)/1e6, "ms", "simulated, during set-up")

	// Client layer: GETs of the stream's keys through the server.
	ops, keys := l.first(replayGets)
	cget := l.clientGets(ops, keys)
	cq := percentile(cget, 50)
	rep.add("client.get_p50_us", float64(cq.value)/1e3, "us", fmt.Sprintf("n=%d", cq.n))

	// Shard layer: the same GETs straight into the shard set.
	d1 := l.shardGets(ops, keys, 1, false)
	d2 := l.shardGets(ops, keys, 2, false)
	rep.add("shard.get_ns_1g", perOpNs(d1, len(ops)), "ns", "Set.RetrieveAppend, wall / ops, 1 goroutine")
	rep.add("shard.get_ns_2g", perOpNs(d2, len(ops)), "ns", "Set.RetrieveAppend, wall / ops, 2 goroutines")
	l.shardGets(ops, keys, 2, true)
	sq := percentile(l.tr.durations(spanShardSetRetrieveAppend), 50)
	rep.add("server.overhead_us", float64(cq.value-sq.value)/1e3, "us",
		fmt.Sprintf("client GET p50 - per-call Set.RetrieveAppend p50 at 2 goroutines (%.0f ns)", float64(sq.value)))

	// Device and core layers, single caller, server idle.
	dget, simUs, dreads := l.deviceGets(ops, keys)
	rep.add("device.get_ns", perOpNs(dget, len(ops)), "ns", "Device.RetrieveAppend")
	rep.add("device.get_sim_us", simUs, "us", "simulated")
	rep.add("device.flash_reads_per_op", ratio(dreads, int64(len(ops))), "count", "")
	lk, pageins, err := l.coreLookups(ops, keys)
	if err != nil {
		return err
	}
	rep.add("core.lookup_ns", perOpNs(lk, len(ops)), "ns", "Index().Lookup(SigScheme.Compute(key))")
	rep.add("core.pagein_per_lookup", ratio(pageins, int64(len(ops))), "count", "flash reads per lookup")

	// Scans: only the scan workload's store runs iterator signatures.
	scanUs, scanReads := 0.0, 0.0
	if s.scanLimit > 0 {
		sops, skeys := l.first(replayScans, kindScan)
		scanUs, scanReads = l.shardScans(sops, skeys)
	}
	rep.add("shard.scan_us", scanUs, "us", "Set.Iterate (0 = workload has no scans)")
	rep.add("device.scan_flash_reads", scanReads, "count", "flash reads per Set.Iterate")

	if err := l.hopscotch(); err != nil {
		return err
	}
	l.kvwire(ops, keys)
	l.recordHist(w)

	// Mutations last, so the reads above saw the client phase's state.
	pops, pkeys := l.first(replayPuts)
	rep.add("shard.put_ns", l.shardPuts(pops, pkeys), "ns", "Set.Store, mean per call")
	return l.wal(pops, pkeys, filepath.Join(dir, "wal-layer"))
}

func (l *layers) clientGets(ops []opRec, keys [][]byte) []int64 {
	var mu sync.Mutex
	var lat []int64
	var wg sync.WaitGroup
	for g := 0; g < numClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sb := l.tr.buf()
			root := sb.open(spanReplayClient, 0, 0)
			var mine []int64
			var failed int64
			for i := g; i < len(ops); i += numClients {
				t0 := time.Now()
				v, err := l.st.cl.Get(keys[i])
				t1 := time.Now()
				sb.add(spanClientGet, root, uint64(i), sb.at(t0), sb.at(t1))
				mine = append(mine, int64(t1.Sub(t0)))
				if _, ok := checkValue(v, ops[i].id, l.s.valueSize, true); err != nil || !ok {
					failed++
					l.chk.fail("replay client GET %s: %v", keys[i], err)
				}
			}
			sb.close(root)
			l.chk.add(int64(len(mine)), failed)
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return lat
}

// shardGets replays the GETs against the shard set from n goroutines
// and returns the wall time for all of them. With perOp each call is a
// span; otherwise each goroutine's loop is one span, so timing adds
// nothing per call. Only the value header is checked inside the loop.
func (l *layers) shardGets(ops []opRec, keys [][]byte, n int, perOp bool) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sb := l.tr.buf()
			var buf []byte
			var calls, failed int64
			<-start
			loop := spanReplayShardGet1g
			if n > 1 {
				loop = spanReplayShardGet2g
			}
			root := sb.open(loop, 0, 0)
			for i := g; i < len(ops); i += n {
				var c0 int64
				if perOp {
					c0 = sb.now()
				}
				v, err := l.st.set.RetrieveAppend(buf[:0], keys[i])
				if perOp {
					sb.add(spanShardSetRetrieveAppend, root, uint64(i), c0, sb.now())
				}
				calls++
				if err == nil {
					buf = v
				}
				if _, ok := checkValue(v, ops[i].id, l.s.valueSize, false); err != nil || !ok {
					failed++
					l.chk.fail("replay shard GET %s: %v", keys[i], err)
				}
			}
			sb.close(root)
			l.chk.add(calls, failed)
		}(g)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

func (l *layers) deviceGets(ops []opRec, keys [][]byte) (time.Duration, float64, int64) {
	set := l.st.set
	var simTotal time.Duration
	var failed int64
	r0 := l.flashReads()
	var buf []byte
	d := l.timeSpan(spanReplayDeviceGet, uint64(len(ops)), func() {
		for i, key := range keys {
			dev := set.Shard(set.RouteKey(key)).Device()
			submit := dev.Drain()
			v, done, err := dev.RetrieveAppend(submit, key, buf[:0])
			simTotal += time.Duration(done - submit)
			if err == nil {
				buf = v
			}
			if _, ok := checkValue(v, ops[i].id, l.s.valueSize, false); err != nil || !ok {
				failed++
				l.chk.fail("replay device GET %s: %v", key, err)
			}
		}
	})
	l.chk.add(int64(len(ops)), failed)
	return d, simTotal.Seconds() * 1e6 / float64(max(len(ops), 1)), l.flashReads() - r0
}

func (l *layers) coreLookups(ops []opRec, keys [][]byte) (time.Duration, int64, error) {
	set := l.st.set
	var failed int64
	var lookupErr error
	r0 := l.flashReads()
	d := l.timeSpan(spanReplayCoreLookup, uint64(len(ops)), func() {
		for _, key := range keys {
			dev := set.Shard(set.RouteKey(key)).Device()
			_, ok, err := dev.Index().Lookup(dev.Scheme().Compute(key))
			if err != nil && lookupErr == nil {
				lookupErr = err
			}
			if !ok {
				failed++
				l.chk.fail("replay core lookup %s: not found (%v)", key, err)
			}
		}
	})
	l.chk.add(int64(len(ops)), failed)
	if lookupErr != nil {
		return 0, 0, fmt.Errorf("core lookup: %w", lookupErr)
	}
	return d, l.flashReads() - r0, nil
}

// shardScans replays scans as full-group Set.Iterate calls and checks
// each against the preloaded key space.
func (l *layers) shardScans(ops []opRec, keys [][]byte) (usPerScan, readsPerScan float64) {
	group := 1 << uint(4*(16-l.s.prefixLen))
	sb := l.tr.buf()
	root := sb.open(spanReplayShardScan, 0, 0)
	var failed int64
	var total time.Duration
	var entries []scanEntry
	r0 := l.flashReads()
	for i, key := range keys {
		t0 := time.Now()
		got, err := l.st.set.Iterate(key[:l.s.prefixLen])
		t1 := time.Now()
		sb.add(spanShardSetIterate, root, uint64(i), sb.at(t0), sb.at(t1))
		total += t1.Sub(t0)
		entries = entries[:0]
		for _, e := range got {
			entries = append(entries, scanEntry{e.Key, e.Value})
		}
		if err != nil || !checkScan(l.s, ops[i].id, entries, group) {
			failed++
			l.chk.fail("replay scan %s: %d entries, %v", key[:l.s.prefixLen], len(entries), err)
		}
	}
	sb.close(root)
	l.chk.add(int64(len(ops)), failed)
	n := float64(max(len(ops), 1))
	return total.Seconds() * 1e6 / n, float64(l.flashReads()-r0) / n
}

// hopscotch measures one record table filled with the workload's
// signatures up to the index's measured occupancy.
func (l *layers) hopscotch() error {
	dev := l.st.set.Shard(0).Device()
	rh, ok := dev.Index().(*core.RHIK)
	if !ok {
		return errors.New("index is not RHIK")
	}
	scheme := dev.Scheme()
	newTable := func() *hopscotch.Table {
		if scheme.Wide() {
			return hopscotch.NewWide(rh.RecordsPerTable(), core.DefaultHopRange)
		}
		return hopscotch.New(rh.RecordsPerTable(), core.DefaultHopRange)
	}
	t := newTable()
	occ := rh.Occupancy()
	target := int(occ * float64(t.Cap()))
	var lo, hi []uint64
	for id := uint64(0); t.Len() < target && id < l.s.records; id++ {
		sig := scheme.Compute(appendKey(nil, id))
		if _, err := t.PutWide(sig.Lo, sig.Hi, id+1); err == nil {
			lo, hi = append(lo, sig.Lo), append(hi, sig.Hi)
		}
	}
	var failed int64
	n := 0
	get := l.timeSpan(spanReplayHopscotchGet, hopLookups, func() {
		for n < hopLookups {
			for i := range lo {
				if _, ok := t.GetWide(lo[i], hi[i]); !ok {
					failed++
				}
				n++
			}
		}
	})
	buf := make([]byte, t.EncodedBytes())
	enc := l.timeSpan(spanReplayHopscotchEncode, hopRounds, func() {
		for i := 0; i < hopRounds; i++ {
			t.EncodeTo(buf)
		}
	})
	t2 := newTable()
	var decErr error
	dec := l.timeSpan(spanReplayHopscotchDecode, hopRounds, func() {
		for i := 0; i < hopRounds && decErr == nil; i++ {
			decErr = t2.DecodeFrom(buf)
		}
	})
	if decErr != nil {
		return fmt.Errorf("hopscotch decode: %w", decErr)
	}
	for i := range lo {
		if ppa, ok := t2.GetWide(lo[i], hi[i]); !ok || ppa == 0 {
			failed++
		}
	}
	l.chk.add(int64(n+len(lo)), failed)
	if failed > 0 {
		l.chk.fail("hopscotch: %d lookups missed", failed)
	}
	l.rep.add("hopscotch.get_ns", float64(get.Nanoseconds())/float64(n), "ns",
		fmt.Sprintf("GetWide, table %d/%d slots (index occupancy %.3f)", t.Len(), t.Cap(), occ))
	l.rep.add("hopscotch.decode_us", dec.Seconds()*1e6/hopRounds, "us", fmt.Sprintf("DecodeFrom, %d B page", len(buf)))
	l.rep.add("hopscotch.encode_us", enc.Seconds()*1e6/hopRounds, "us", "EncodeTo")
	return nil
}

// kvwire encodes and parses the request and response frames of the
// replayed ops: the GET stream's frames, plus this workload's PUT and
// SCAN frames for the ops of those kinds.
func (l *layers) kvwire(ops []opRec, keys [][]byte) {
	s := l.s
	vals := make([][]byte, len(ops))
	scans := make([][]kvwire.ScanEntry, len(ops))
	for i, op := range ops {
		vals[i] = appendValue(nil, op.id, writerPreload, 0, s.valueSize)
		if op.kind == kindScan {
			base := op.id >> uint(4*(16-s.prefixLen)) << uint(4*(16-s.prefixLen))
			for j := uint64(0); j < uint64(s.scanLimit) && base+j < s.records; j++ {
				scans[i] = append(scans[i], kvwire.ScanEntry{
					Key: appendKey(nil, base+j), Value: appendValue(nil, base+j, writerPreload, 0, s.valueSize)})
			}
		}
	}
	encodeOne := func(buf []byte, i int) []byte {
		switch ops[i].kind {
		case kindPut:
			buf = kvwire.AppendPut(buf, uint64(i), keys[i], vals[i])
			return kvwire.AppendOK(buf, uint64(i))
		case kindScan:
			buf = kvwire.AppendScan(buf, uint64(i), keys[i][:s.prefixLen], uint64(s.scanLimit))
			return kvwire.AppendScanResponse(buf, uint64(i), scans[i])
		default:
			buf = kvwire.AppendGet(buf, uint64(i), keys[i])
			return kvwire.AppendValueResponse(buf, uint64(i), vals[i])
		}
	}
	var buf []byte
	enc := l.timeSpan(spanReplayKvwireEncode, uint64(len(ops)), func() {
		for i := range ops {
			buf = encodeOne(buf[:0], i)
		}
	})
	// Keep every op's two frames for the parse pass.
	var frames []byte
	var offs []int
	for i := range ops {
		offs = append(offs, len(frames))
		frames = encodeOne(frames, i)
	}
	offs = append(offs, len(frames))

	var failed int64
	var req kvwire.Request
	var resp kvwire.Response
	var entries []kvwire.ScanEntry
	dec := l.timeSpan(spanReplayKvwireDecode, uint64(len(ops)), func() {
		for i := range ops {
			f := frames[offs[i]:offs[i+1]]
			n := 4 + int(uint32(f[0])|uint32(f[1])<<8|uint32(f[2])<<16|uint32(f[3])<<24)
			if req.Parse(f[4:n]) != nil || resp.Parse(f[n+4:]) != nil || resp.ID != uint64(i) {
				failed++
				continue
			}
			var ok bool
			switch ops[i].kind {
			case kindPut:
				ok = bytes.Equal(req.Value, vals[i]) && len(resp.Payload) == 0
			case kindScan:
				var err error
				entries, err = kvwire.ParseScanPayload(resp.Payload, entries[:0])
				ok = err == nil && len(entries) == len(scans[i])
			default:
				v, err := kvwire.ParseValuePayload(resp.Payload)
				ok = err == nil && bytes.Equal(v, vals[i])
			}
			if !ok || len(req.Key) == 0 || !bytes.HasPrefix(keys[i], req.Key) {
				failed++
			}
		}
	})
	l.chk.add(int64(len(ops)), failed)
	if failed > 0 {
		l.chk.fail("kvwire: %d frames did not round-trip", failed)
	}
	l.rep.add("kvwire.encode_ns", perOpNs(enc, len(ops)), "ns", "request + response frame per op")
	l.rep.add("kvwire.decode_ns", perOpNs(dec, len(ops)), "ns", "Request.Parse + Response.Parse + payload")
	l.rep.add("kvwire.bytes_per_op", float64(len(frames))/float64(max(len(ops), 1)), "B", "request + response frame")
}

func perOpNs(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

// recordHist times metrics.ConcurrentHistogram.Record from 2 goroutines
// fed the client phase's own latency samples.
func (l *layers) recordHist(w *timed) {
	var samples []int64
	for k := range w.lat {
		samples = append(samples, w.lat[k]...)
	}
	var h metrics.ConcurrentHistogram
	var wg sync.WaitGroup
	d := l.timeSpan(spanReplayMetricsRecord2g, 2*recordN, func() {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < recordN; i++ {
					h.Record(samples[(i*2+g)%len(samples)])
				}
			}(g)
		}
		wg.Wait()
	})
	if h.Count() != 2*recordN {
		l.chk.add(1, 1)
		l.chk.fail("ConcurrentHistogram recorded %d of %d", h.Count(), 2*recordN)
	} else {
		l.chk.add(1, 0)
	}
	l.rep.add("metrics.record_ns_2g", perOpNs(d, 2*recordN), "ns", "ConcurrentHistogram.Record, wall / calls, 2 goroutines")
}

// shardPuts overwrites the replayed keys through Set.Store (the WAL's
// group commit when one is attached); the PUTs join the durability check.
func (l *layers) shardPuts(ops []opRec, keys [][]byte) float64 {
	sb := l.tr.buf()
	root := sb.open(spanReplayShardPut, 0, 0)
	var failed int64
	var total time.Duration
	var val []byte
	for i, key := range keys {
		l.st.seqs[writerReplay]++
		seq := l.st.seqs[writerReplay]
		val = appendValue(val[:0], ops[i].id, writerReplay, seq, l.s.valueSize)
		t0 := time.Now()
		err := l.st.set.Store(key, val)
		t1 := time.Now()
		sb.add(spanShardSetStore, root, uint64(i), sb.at(t0), sb.at(t1))
		total += t1.Sub(t0)
		if err != nil {
			failed++
			l.chk.fail("replay PUT %s: %v", key, err)
			continue
		}
		l.st.puts = append(l.st.puts, putRec{id: ops[i].id, writer: writerReplay, seq: seq,
			start: int64(t0.Sub(processStart)), end: int64(t1.Sub(processStart))})
	}
	sb.close(root)
	l.chk.add(int64(len(ops)), failed)
	return perOpNs(total, len(ops))
}

// wal appends the replayed PUTs to a standalone log one record per
// Append, syncing after each, then replays the log.
func (l *layers) wal(ops []opRec, keys [][]byte, dir string) error {
	n := min(len(ops), walRecords)
	lg, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		return err
	}
	if _, err := lg.Replay(func(*wal.Record) error { return nil }); err != nil {
		lg.Close()
		return err
	}
	sb := l.tr.buf()
	root := sb.open(spanReplayWal, 0, 0)
	scheme := l.st.set.Shard(0).Device().Scheme()
	var appendT, syncT time.Duration
	var val []byte
	for i := 0; i < n; i++ {
		val = appendValue(val[:0], ops[i].id, writerReplay, uint32(i), l.s.valueSize)
		rec := wal.Record{Seq: lg.ReserveSeqs(1), Op: wal.OpPut, Sig: scheme.Compute(keys[i]).Lo, Key: keys[i], Value: val}
		t0 := time.Now()
		err := lg.Append([]wal.Record{rec})
		t1 := time.Now()
		if err == nil {
			err = lg.Sync()
		}
		t2 := time.Now()
		if err != nil {
			lg.Close()
			return fmt.Errorf("wal append: %w", err)
		}
		sb.add(spanWalLogAppend, root, uint64(i), sb.at(t0), sb.at(t1))
		sb.add(spanWalLogSync, root, uint64(i), sb.at(t1), sb.at(t2))
		appendT += t1.Sub(t0)
		syncT += t2.Sub(t1)
	}
	sb.close(root)
	if err := lg.Close(); err != nil {
		return err
	}

	lg, err = wal.Open(dir, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		return err
	}
	var replayed, failed int64
	t0 := time.Now()
	info, err := lg.Replay(func(r *wal.Record) error {
		i := int(r.Seq - 1)
		if i < 0 || i >= n || !bytes.Equal(r.Key, keys[i]) {
			failed++
		} else if _, ok := checkValue(r.Value, ops[i].id, l.s.valueSize, true); !ok {
			failed++
		}
		replayed++
		return nil
	})
	replay := time.Since(t0)
	sb.add(spanWalLogReplay, 0, uint64(n), sb.at(t0), sb.at(t0.Add(replay)))
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	if replayed != int64(n) || info.Records != n {
		failed += int64(n) - replayed
	}
	l.chk.add(int64(n), failed)
	if failed > 0 {
		l.chk.fail("wal: %d of %d records did not replay intact", failed, n)
	}
	l.rep.add("wal.append_us", appendT.Seconds()*1e6/float64(max(n, 1)), "us", "Log.Append, one record per call, standalone log")
	l.rep.add("wal.sync_us", syncT.Seconds()*1e6/float64(max(n, 1)), "us", "Log.Sync after each append")
	l.rep.add("wal.replay_s", replay.Seconds(), "s", fmt.Sprintf("Log.Replay of %d records", n))
	return nil
}
