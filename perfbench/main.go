// Command perfbench is the repository's end-to-end benchmark. It serves
// a 2-shard store (rhik.OpenSet) in-process over a loopback listener
// (internal/server) and drives it through internal/client with 2
// closed-loop clients, on one of four YCSB workloads:
//
//	read-hot        YCSB-B, 100k keys x 128 B, default 10 MiB index cache
//	read-cold       YCSB-C, 100k keys x 128 B, 640 KiB index cache
//	update-durable  YCSB-A, 100k keys x 1 KiB, WAL with fsync "none"
//	scan            YCSB-E, 100k keys x 128 B, prefix 14, 16 per scan
//
// With -trace 0 it sets up and measures numStacks stacks in turn and
// reports end-to-end metrics; with -trace 1 it sets up one stack, runs
// the client phase half untraced and half with spans, then replays the
// op stream one layer down at a time and reports per-layer metrics. Every reply is
// checked. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage, from the repository root (the working directory, under which
// everything a run writes goes to .perfbench/):
//
//	python3 perfbench/run.py --workload read-hot --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workDir holds everything a run writes: WAL directories and span
// dumps. It is relative to the working directory.
const workDir = ".perfbench"

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts and the like, for the human-readable report
}

type report struct {
	metrics []metric
	info    []string // extra human-readable lines
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: read-hot, read-cold, update-durable or scan")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "length of the timed client phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	s, err := specByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	dir := filepath.Join(workDir, s.name)
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	chk := &checker{}
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 0 {
		rep, err = endToEnd(s, *seed, dur, dir, chk)
	} else {
		rep, err = perLayer(s, *seed, dur, dir, chk)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
		return 1
	}

	fmt.Printf("workload %s seed %d seconds %d trace %d (GOMAXPROCS %d)\n",
		s.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	out := map[string]any{}
	for _, m := range rep.metrics {
		fmt.Printf("  %-26s %14.4f %-5s %s\n", m.name, m.value, m.unit, m.note)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, line := range rep.info {
		fmt.Println("  (info)", line)
	}
	attempted, failed := chk.attempted.Load(), chk.failed.Load()
	fmt.Printf("  checked %d operations, %d failed (fail_ratio %.6f)\n",
		attempted, failed, float64(failed)/float64(max(attempted, 1)))
	for _, msg := range chk.msgs {
		fmt.Println("  failure:", msg)
	}
	correct := failed == 0 && attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// An end-to-end run builds numStacks stacks one after another. Each is
// set up from scratch (one setup_s sample), measured for 1/numStacks of
// the timed phase, then shut down and checked. A stack's wall-clock
// throughput holds one level across all of its segments, and that
// level differed by up to 30% between stacks of the same run, so the
// printed wall-clock figures are medians over the segments of all
// stacks rather than one stack's draw.
const numStacks = 4

// endToEnd sets up and measures numStacks stacks in turn and reports
// what a user of the store sees that does not follow the host's speed:
// set-up time, simulated throughput, flash reads and memory. Each stack's samples are reduced to
// its segments' figures before the next is built, so heap_mb counts
// the store and not the benchmark's earlier samples.
func endToEnd(s spec, seed int64, dur time.Duration, dir string, chk *checker) (*report, error) {
	rep := &report{}
	read := s.readKind()
	var setups, heaps, rates, p50s, p90s []float64
	var ops, flashReads, readN int64
	var sim time.Duration
	var elapsed float64
	segs := 0 // segments so far, so each stack replays new op streams
	for i := 0; i < numStacks; i++ {
		runtime.GC()
		walDir := filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		st, took, err := setUp(s, walDir, seed, chk)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		w, err := timedPhase(st, seed, segs, dur/numStacks, nil, chk)
		if err != nil {
			st.shutdown()
			return nil, err
		}
		if err := finish(st, chk, rep); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		r, q50, q90, err := segFigures(w.segs, read)
		if err != nil {
			return nil, fmt.Errorf("stack %d: %w", i, err)
		}
		rates, p50s, p90s = append(rates, r...), append(p50s, q50...), append(p90s, q90...)
		segs += len(w.segs)
		heaps = append(heaps, float64(w.heapSetUp)/(1<<20))
		ops += w.ops
		readN += int64(len(w.lat[read]))
		elapsed += w.elapsed.Seconds()
		sim += w.simElapsed
		flashReads += w.after.Flash.Reads - w.before.Flash.Reads
		line := fmt.Sprintf("stack %d: set-up %.3fs, segment ops/s %.0f", i, took.Seconds(), rates[len(rates)-len(w.segs):])
		for k := kindGet; k < numKinds; k++ {
			if len(w.lat[k]) > 0 {
				p50, p99 := percentile(w.lat[k], 50), percentile(w.lat[k], 99)
				line += fmt.Sprintf("; %s p50 %.1fus (n=%d), p99 %.1fus (beyond=%d)",
					kindNames[k], float64(p50.value)/1e3, p50.n, float64(p99.value)/1e3, p99.beyond)
			}
		}
		rep.info = append(rep.info, line)
	}
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups))
	rep.add("sim_ops_per_s", float64(ops)/sim.Seconds(), "1/s", fmt.Sprintf("simulated device time %.4fs", sim.Seconds()))
	rep.add("flash_reads_per_op", float64(flashReads)/float64(ops), "count", "")
	rep.add("heap_mb", median(heaps), "MB", fmt.Sprintf("in-use heap after set-up and a GC, median of %.2f", heaps))
	// Wall-clock serving figures follow the host's speed, so they are
	// printed here but reported as metrics only by the traced run.
	rep.info = append(rep.info, fmt.Sprintf("wall clock: %.0f ops/s, %s p50 %.1fus, p90 %.1fus (medians of %d segments; %d ops in %.3fs, %d clients, %d %s samples)",
		median(rates), kindNames[read], median(p50s), median(p90s), len(rates), ops, elapsed, numClients, readN, kindNames[read]))
	return rep, nil
}
