// Command kvload is a closed-loop load generator for kvserver: N worker
// goroutines each keep exactly one request outstanding (optionally a
// BATCH frame of many ops), spread across a pooled pipelined client
// connection set, and report wall-clock throughput plus request-latency
// percentiles from the shared metrics histogram.
//
// Closed-loop means offered load adapts to service rate — workers wait
// for each response before issuing the next request — so the reported
// latency is uninflated by client-side queueing and the throughput is
// the sustainable rate at that concurrency.
//
// Besides the classic read/write/mixed mixes, -mix accepts the YCSB core
// workloads (ycsb-a … ycsb-f): each worker replays its own deterministic
// generator stream over the -keys ID space (use -preload to populate it
// first). YCSB-E's short scans are real wire SCAN requests — one
// round trip resolved by the server's device-side Iterate — so the
// server must run with -prefixlen 14 (the YCSB key-group width); a
// server without iterator-mode signatures rejects them with
// BAD_REQUEST. -scanlen caps the keys returned per scan.
//
// -rate with -shape modulates offered load over the run (diurnal ramp,
// flash-crowd burst): workers switch from closed-loop to paced issue, so
// reported latency then includes client-side queueing when the server
// falls behind the shaped rate — which is the point of the experiment.
//
// Examples:
//
//	kvload -addr 127.0.0.1:7700 -duration 5s -concurrency 32 -batch 64
//	kvload -addr 127.0.0.1:7700 -n 100000 -mix mixed -value 1024
//	kvload -addr 127.0.0.1:7700 -mix ycsb-a -preload -duration 10s
//	kvload -addr 127.0.0.1:7700 -mix ycsb-b -rate 50000 -shape diurnal
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/kvwire"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7700", "kvserver TCP address")
		conns       = flag.Int("conns", 4, "pooled connections")
		concurrency = flag.Int("concurrency", 16, "closed-loop worker goroutines")
		duration    = flag.Duration("duration", 5*time.Second, "run length (ignored when -n > 0)")
		nops        = flag.Int64("n", 0, "total operation budget (0 = run for -duration)")
		valueSize   = flag.Int("value", 128, "value size in bytes")
		keyspace    = flag.Int64("keys", 100_000, "distinct keys")
		mixName     = flag.String("mix", "mixed", "operation mix: write, read, mixed, or ycsb-a..ycsb-f")
		batchSize   = flag.Int("batch", 64, "ops per BATCH frame (1 = single-op frames; YCSB mixes are always single-op)")
		seed        = flag.Int64("seed", 42, "generator seed")
		retries     = flag.Int("retries", 16, "client retry budget for BUSY")
		readers     = flag.Int("readers", 0, "dedicated GET-only workers (with -writers, replaces -concurrency/-mix)")
		writers     = flag.Int("writers", 0, "dedicated PUT-only workers (with -readers, replaces -concurrency/-mix)")
		preload     = flag.Bool("preload", false, "store all -keys sequentially before the timed run (YCSB assumes a loaded table)")
		scanLen     = flag.Int("scanlen", 16, "max keys per YCSB-E SCAN request (server needs -prefixlen 14)")
		rate        = flag.Float64("rate", 0, "target offered load in ops/s (0 = closed loop); shaped by -shape")
		shapeName   = flag.String("shape", "steady", "offered-load shape over the run: steady, diurnal, flash-crowd")
	)
	flag.Parse()
	if *batchSize < 1 || *keyspace < 1 {
		fatalf("-batch and -keys must be >= 1")
	}
	if *readers < 0 || *writers < 0 {
		fatalf("-readers and -writers must be >= 0")
	}
	shape, err := workload.ParseShape(*shapeName)
	if err != nil {
		fatalf("%v", err)
	}
	var putFrac float64
	var ycsb *workload.YCSBSpec
	switch *mixName {
	case "write":
		putFrac = 1.0
	case "read":
		putFrac = 0.0
	case "mixed":
		putFrac = 0.5
	default:
		if strings.HasPrefix(*mixName, "ycsb") {
			spec, err := workload.YCSBWorkload(*mixName)
			if err != nil {
				fatalf("%v", err)
			}
			ycsb = &spec
			break
		}
		fatalf("unknown mix %q", *mixName)
	}
	if ycsb != nil && (*readers > 0 || *writers > 0) {
		fatalf("-readers/-writers cannot be combined with a YCSB mix")
	}
	// Role split: when -readers/-writers are set, each worker is pinned to
	// one op type instead of sampling the -mix. This is how the sharded
	// read-pool server is meant to be exercised: readers saturate the
	// lock-free read path while writers churn the exclusive lock.
	roleSplit := *readers > 0 || *writers > 0
	if roleSplit {
		*concurrency = *readers + *writers
	}
	if *concurrency < 1 {
		fatalf("need at least one worker (-concurrency, or -readers/-writers)")
	}
	// workerPutFrac reports the put probability for worker w.
	workerPutFrac := func(w int) float64 {
		if !roleSplit {
			return putFrac
		}
		if w < *writers {
			return 1.0
		}
		return 0.0
	}

	c, err := client.Dial(client.Options{Addr: *addr, Conns: *conns, MaxRetries: *retries})
	if err != nil {
		fatalf("dial %s: %v", *addr, err)
	}
	defer c.Close()

	type tally struct {
		ops, requests, notFound, failed int64
		gets, puts, scans               int64
		lat, getLat, putLat             metrics.Histogram
		err                             error
	}
	tallies := make([]tally, *concurrency)
	var opsBudget atomic.Int64
	opsBudget.Store(*nops)

	value := make([]byte, *valueSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	// keyFor renders a key ID: YCSB mixes use the canonical hierarchical
	// hex keys (so scans address adjacent IDs), classic mixes keep the
	// historical decimal format.
	keyFor := func(id int64) []byte {
		if ycsb != nil {
			return workload.KeyBytes(uint64(id))
		}
		return fmt.Appendf(nil, "key%016d", id)
	}

	if *preload {
		preStart := time.Now()
		if err := preloadKeys(c, keyFor, *keyspace, *conns); err != nil {
			fatalf("preload: %v", err)
		}
		fmt.Printf("preload: %d keys in %v\n", *keyspace, time.Since(preStart).Round(time.Millisecond))
	}

	var wg sync.WaitGroup
	// The timed phase starts after any preload, so a preload longer than
	// -duration still leaves a full timed phase.
	start := time.Now()
	deadline := start.Add(*duration)
	newPacer := func() *pacer {
		return &pacer{
			perWorker: *rate / float64(*concurrency),
			shape:     shape,
			start:     start,
			duration:  *duration,
		}
	}
	// runYCSB replays one worker's deterministic YCSB stream, one op per
	// request; YCSB-E scans are single SCAN round trips.
	runYCSB := func(w int, tl *tally) {
		gen, err := workload.NewYCSB(*ycsb, uint64(*keyspace), workload.Fixed{Size: *valueSize}, *seed+int64(w))
		if err != nil {
			tl.err = err
			return
		}
		pace := newPacer()
		get := func(id uint64) bool {
			reqStart := time.Now()
			_, err := c.Get(workload.KeyBytes(id))
			lat := time.Since(reqStart).Nanoseconds()
			if errors.Is(err, kvwire.ErrNotFound) {
				tl.notFound++
				err = nil
			}
			if err != nil {
				tl.err = err
				return false
			}
			tl.gets++
			tl.getLat.Record(lat)
			tl.lat.Record(lat)
			tl.requests++
			return true
		}
		put := func(id uint64) bool {
			reqStart := time.Now()
			err := c.Put(workload.KeyBytes(id), value)
			lat := time.Since(reqStart).Nanoseconds()
			if err != nil {
				tl.err = err
				return false
			}
			tl.puts++
			tl.putLat.Record(lat)
			tl.lat.Record(lat)
			tl.requests++
			return true
		}
		for {
			if *nops > 0 {
				if opsBudget.Add(-1) < 0 {
					return
				}
			} else if time.Now().After(deadline) {
				return
			}
			pace.wait(1)
			op := gen.Next()
			ok := true
			switch op.Kind {
			case workload.OpRetrieve:
				ok = get(op.KeyID)
			case workload.OpStore:
				ok = put(op.KeyID)
			case workload.OpIterate:
				// Real short scan: one SCAN frame over the op's key group.
				prefix := workload.KeyBytes(op.KeyID)[:op.ScanPrefix]
				reqStart := time.Now()
				entries, err := c.Scan(prefix, *scanLen)
				lat := time.Since(reqStart).Nanoseconds()
				if err != nil {
					if errors.Is(err, kvwire.ErrBadRequest) {
						err = fmt.Errorf("SCAN rejected (run kvserver with -prefixlen %d): %w", op.ScanPrefix, err)
					}
					tl.err = err
					return
				}
				if len(entries) == 0 {
					tl.notFound++
				}
				tl.scans++
				tl.lat.Record(lat)
				tl.requests++
			case workload.OpRMW:
				ok = get(op.KeyID) && put(op.KeyID)
			}
			if !ok {
				return
			}
			tl.ops++
		}
	}

	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &tallies[w]
			if ycsb != nil {
				runYCSB(w, tl)
				return
			}
			putFrac := workerPutFrac(w)
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			pace := newPacer()
			key := make([]byte, 0, 24)
			nextKey := func() []byte {
				key = key[:0]
				return fmt.Appendf(key, "key%016d", rng.Int63n(*keyspace))
			}
			for {
				if *nops > 0 {
					if opsBudget.Add(-int64(*batchSize)) < 0 {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				pace.wait(*batchSize)
				var reqStart time.Time
				if *batchSize == 1 {
					k := nextKey()
					isPut := rng.Float64() < putFrac
					reqStart = time.Now()
					var err error
					if isPut {
						err = c.Put(k, value)
					} else {
						_, err = c.Get(k)
					}
					opLat := time.Since(reqStart).Nanoseconds()
					if errors.Is(err, kvwire.ErrNotFound) {
						tl.notFound++
						err = nil
					}
					if err != nil {
						tl.err = err
						return
					}
					tl.ops++
					if isPut {
						tl.puts++
						tl.putLat.Record(opLat)
					} else {
						tl.gets++
						tl.getLat.Record(opLat)
					}
				} else {
					var b client.Batch
					for i := 0; i < *batchSize; i++ {
						if rng.Float64() < putFrac {
							tl.puts++
							// Keys must outlive the loop iteration; the
							// batch aliases them until Do encodes.
							b.Put(fmt.Appendf(nil, "key%016d", rng.Int63n(*keyspace)), value)
						} else {
							tl.gets++
							b.Get(fmt.Appendf(nil, "key%016d", rng.Int63n(*keyspace)))
						}
					}
					reqStart = time.Now()
					res, err := c.Do(&b)
					if err != nil {
						tl.err = err
						return
					}
					for _, e := range res.Errs {
						switch {
						case e == nil:
						case errors.Is(e, kvwire.ErrNotFound):
							tl.notFound++
						default:
							tl.failed++
						}
					}
					tl.ops += int64(b.Len())
				}
				tl.lat.Record(time.Since(reqStart).Nanoseconds())
				tl.requests++
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	var tot tally
	for i := range tallies {
		tl := &tallies[i]
		if tl.err != nil {
			fatalf("worker %d: %v", i, tl.err)
		}
		tot.ops += tl.ops
		tot.requests += tl.requests
		tot.notFound += tl.notFound
		tot.failed += tl.failed
		tot.gets += tl.gets
		tot.puts += tl.puts
		tot.scans += tl.scans
		tot.lat.Merge(&tl.lat)
		tot.getLat.Merge(&tl.getLat)
		tot.putLat.Merge(&tl.putLat)
	}

	mixDesc := *mixName
	if roleSplit {
		mixDesc = fmt.Sprintf("readers=%d writers=%d", *readers, *writers)
	}
	fmt.Printf("kvload: addr=%s conns=%d concurrency=%d batch=%d mix=%s value=%dB keys=%d\n",
		*addr, *conns, *concurrency, *batchSize, mixDesc, *valueSize, *keyspace)
	fmt.Printf("ops: %d in %d requests over %v (%d not-found, %d failed)\n",
		tot.ops, tot.requests, wall.Round(time.Millisecond), tot.notFound, tot.failed)
	if wall > 0 {
		fmt.Printf("throughput: %.1f kops/s (%.1f req/s)\n",
			float64(tot.ops)/wall.Seconds()/1e3, float64(tot.requests)/wall.Seconds())
		fmt.Printf("split: %d gets (%.1f kops/s), %d puts (%.1f kops/s)",
			tot.gets, float64(tot.gets)/wall.Seconds()/1e3,
			tot.puts, float64(tot.puts)/wall.Seconds()/1e3)
		if tot.scans > 0 {
			fmt.Printf(", %d scans (%.1f kops/s)", tot.scans, float64(tot.scans)/wall.Seconds()/1e3)
		}
		fmt.Println()
	}
	us := func(h *metrics.Histogram, p float64) float64 { return float64(h.Percentile(p)) / 1e3 }
	fmt.Printf("request latency: p50=%.1fµs p90=%.1fµs p99=%.1fµs max=%.1fµs\n",
		us(&tot.lat, 50), us(&tot.lat, 90), us(&tot.lat, 99), float64(tot.lat.Max())/1e3)
	// Per-op-type latency exists only in single-op mode (YCSB mixes are
	// always single-op); batch frames mix op types inside one round trip.
	if *batchSize == 1 || ycsb != nil {
		if tot.gets > 0 {
			fmt.Printf("GET latency:     p50=%.1fµs p90=%.1fµs p99=%.1fµs max=%.1fµs\n",
				us(&tot.getLat, 50), us(&tot.getLat, 90), us(&tot.getLat, 99), float64(tot.getLat.Max())/1e3)
		}
		if tot.puts > 0 {
			fmt.Printf("PUT latency:     p50=%.1fµs p90=%.1fµs p99=%.1fµs max=%.1fµs\n",
				us(&tot.putLat, 50), us(&tot.putLat, 90), us(&tot.putLat, 99), float64(tot.putLat.Max())/1e3)
		}
	}

	if st, err := c.Stats(); err == nil {
		fmt.Printf("server: shards=%d stores=%d retrieves=%d records=%d resizes=%d storeP99=%v\n",
			st.Shards, st.Stores, st.Retrieves, st.IndexRecords, st.Resizes,
			time.Duration(st.StoreP99ns))
		if st.WALGroups > 0 {
			fmt.Printf("server wal: records=%d groups=%d fsyncs=%d groupP50=%d groupMax=%d (%.2f recs/fsync)\n",
				st.WALRecords, st.WALGroups, st.WALFsyncs, st.WALGroupP50, st.WALGroupMax,
				float64(st.WALRecords)/float64(max(st.WALFsyncs, 1)))
		}
	}
	if tot.failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kvload: "+format+"\n", args...)
	os.Exit(1)
}

// pacer turns -rate and -shape into per-worker issue times. With no rate
// it is a no-op (closed loop). Run progress for the shape comes from
// -duration; in -n mode the shape still tracks elapsed wall time against
// -duration, so pair -rate/-shape with -duration runs.
type pacer struct {
	perWorker float64 // target ops/s for this worker at shape peak
	shape     workload.LoadShape
	start     time.Time
	duration  time.Duration
	next      time.Time
}

// wait sleeps until the next n-op issue slot under the shaped rate.
func (p *pacer) wait(n int) {
	if p.perWorker <= 0 {
		return
	}
	x := 0.0
	if p.duration > 0 {
		x = float64(time.Since(p.start)) / float64(p.duration)
	}
	interval := time.Duration(float64(n) * float64(time.Second) / (p.perWorker * p.shape.RelRate(x)))
	if p.next.IsZero() {
		p.next = time.Now()
	}
	p.next = p.next.Add(interval)
	if d := time.Until(p.next); d > 0 {
		time.Sleep(d)
	}
}

// preloadKeys populates the whole key space with batched PUTs before the
// timed run, sharded across a few goroutines.
func preloadKeys(c *client.Client, keyFor func(int64) []byte, keys int64, conns int) error {
	workers := conns
	if workers < 1 {
		workers = 1
	}
	if workers > 8 {
		workers = 8
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	per := (keys + int64(workers) - 1) / int64(workers)
	for w := 0; w < workers; w++ {
		lo, hi := int64(w)*per, (int64(w)+1)*per
		if hi > keys {
			hi = keys
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			val := make([]byte, 128)
			for id := lo; id < hi; {
				var b client.Batch
				for i := 0; i < 128 && id < hi; i++ {
					b.Put(keyFor(id), val)
					id++
				}
				if res, err := c.Do(&b); err != nil {
					errCh <- err
					return
				} else {
					for _, e := range res.Errs {
						if e != nil {
							errCh <- e
							return
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}
