package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/kvwire"
	"repro/internal/workload"
)

// checker counts checked operations and failures across the run and
// keeps the first few failure messages.
type checker struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	msgs              []string
}

func (c *checker) add(attempted, failed int64) {
	c.attempted.Add(attempted)
	c.failed.Add(failed)
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// Operation kinds the clients issue.
type opKind uint8

const (
	kindGet opKind = iota
	kindPut
	kindScan
	numKinds
)

var (
	kindNames     = [numKinds]string{"get", "put", "scan"}
	clientSpanFor = [numKinds]spanName{spanClientGet, spanClientPut, spanClientScan}
)

// readKind is the workload's read operation: SCAN where it scans, GET
// otherwise.
func (s spec) readKind() opKind {
	if s.scanLimit > 0 {
		return kindScan
	}
	return kindGet
}

// opRec is one executed operation, kept so traced runs can replay the
// same stream one layer down.
type opRec struct {
	kind opKind
	id   uint64
}

// putRec is one acknowledged PUT: which value it wrote and when (ns
// since process start) it was sent and acknowledged.
type putRec struct {
	id         uint64
	writer     uint8
	seq        uint32
	start, end int64
}

// clientLimits stops a client phase after ops operations in total or at
// until, whichever comes first (a zero field is no limit).
type clientLimits struct {
	ops   int64
	until time.Time
}

// phaseResult is what a closed-loop client phase measured.
type phaseResult struct {
	ops     int64
	elapsed time.Duration
	lat     [numKinds][]int64 // per-op wall latency, ns
	log     [numClients][]opRec
	err     error // transport errors, joined
}

func (p *phaseResult) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

var processStart = time.Now()

// streamSeed derives the seed of one client phase's op streams: phase 0
// is the warm-up, phases 1.. the timed segments.
func streamSeed(seed int64, phase int) int64 { return seed*1000 + int64(phase) }

// merge folds several phases into one.
func merge(ps []*phaseResult) *phaseResult {
	out := &phaseResult{}
	var errs []error
	for _, p := range ps {
		out.ops += p.ops
		out.elapsed += p.elapsed
		for k := range p.lat {
			out.lat[k] = append(out.lat[k], p.lat[k]...)
		}
		for c := range p.log {
			out.log[c] = append(out.log[c], p.log[c]...)
		}
		errs = append(errs, p.err)
	}
	out.err = errors.Join(errs...)
	return out
}

// runClients drives the stack with numClients closed-loop clients: each
// sends its next request only after the previous reply arrived. Client
// c replays its own YCSB stream seeded from (seed, c); writers are
// stamped writerBase+c. Every reply is checked; acknowledged PUTs are
// appended to st.puts. With tr non-nil every call is a span.
func runClients(st *stack, seed int64, writerBase uint8, lim clientLimits, tr *tracer, chk *checker) *phaseResult {
	s := st.spec
	ys, err := workload.YCSBWorkload(s.ycsb)
	if err != nil {
		return &phaseResult{err: err}
	}
	gens := make([]*workload.YCSB, numClients)
	for c := range gens {
		gens[c], err = workload.NewYCSB(ys, s.records, workload.Fixed{Size: s.valueSize}, seed*numClients+int64(c))
		if err != nil {
			return &phaseResult{err: err}
		}
	}
	res := &phaseResult{}
	var budget atomic.Int64
	budget.Store(lim.ops)
	states := make([]*clientState, numClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range states {
		w := writerBase + uint8(c)
		states[c] = &clientState{st: st, cl: st.cl, writer: w, seq: st.seqs[w], sb: tr.buf()}
		wg.Add(1)
		go func(cs *clientState, gen *workload.YCSB) {
			defer wg.Done()
			cs.run(gen, lim, &budget)
		}(states[c], gens[c])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	var errs []error
	for c, cs := range states {
		res.log[c] = cs.log
		res.ops += int64(len(cs.log))
		for k := range cs.lat {
			res.lat[k] = append(res.lat[k], cs.lat[k]...)
		}
		st.puts = append(st.puts, cs.puts...)
		st.seqs[cs.writer] = cs.seq
		errs = append(errs, cs.err)
		chk.add(cs.attempted, cs.failed)
		if cs.failed > 0 {
			chk.fail("client %d: %s", c, cs.firstFail)
		}
	}
	res.err = errors.Join(errs...)
	return res
}

// clientState is one closed-loop client's private state; nothing in it
// is shared with the other client while the loop runs.
type clientState struct {
	st     *stack
	cl     *client.Client
	writer uint8
	seq    uint32
	sb     *spanBuf

	lat  [numKinds][]int64
	log  []opRec
	puts []putRec

	attempted, failed int64
	firstFail         string
	err               error
}

func (cs *clientState) failf(format string, args ...any) {
	cs.failed++
	if cs.firstFail == "" {
		cs.firstFail = fmt.Sprintf(format, args...)
	}
}

func (cs *clientState) run(gen *workload.YCSB, lim clientLimits, budget *atomic.Int64) {
	s := cs.st.spec
	var root uint64
	if cs.sb != nil {
		root = cs.sb.open(spanClientPhase, 0, 0)
		defer cs.sb.close(root)
	}
	key := make([]byte, 0, 16)
	val := make([]byte, 0, s.valueSize)
	var entries []scanEntry
	for n := uint64(0); ; n++ {
		if lim.ops > 0 && budget.Add(-1) < 0 {
			break
		}
		op := gen.Next()
		key = appendKey(key[:0], op.KeyID)
		var kind opKind
		var t0, t1 time.Time
		var callErr error
		switch op.Kind {
		case workload.OpRetrieve:
			kind = kindGet
			t0 = time.Now()
			v, err := cs.cl.Get(key)
			t1 = time.Now()
			callErr = err
			if err == nil {
				if _, ok := checkValue(v, op.KeyID, s.valueSize, true); !ok {
					cs.failf("GET %s: wrong value", key)
				}
			}
		case workload.OpStore:
			kind = kindPut
			cs.seq++
			val = appendValue(val[:0], op.KeyID, cs.writer, cs.seq, s.valueSize)
			t0 = time.Now()
			err := cs.cl.Put(key, val)
			t1 = time.Now()
			callErr = err
			if err == nil {
				cs.puts = append(cs.puts, putRec{
					id: op.KeyID, writer: cs.writer, seq: cs.seq,
					start: int64(t0.Sub(processStart)), end: int64(t1.Sub(processStart)),
				})
			}
		case workload.OpIterate:
			kind = kindScan
			t0 = time.Now()
			got, err := cs.cl.Scan(key[:s.prefixLen], s.scanLimit)
			t1 = time.Now()
			callErr = err
			if err == nil {
				entries = entries[:0]
				for _, e := range got {
					entries = append(entries, scanEntry{e.Key, e.Value})
				}
				if !checkScan(s, op.KeyID, entries, s.scanLimit) {
					cs.failf("SCAN %s: wrong result (%d entries)", key[:s.prefixLen], len(entries))
				}
			}
		default:
			cs.err = fmt.Errorf("workload %s: unexpected op %v", s.name, op.Kind)
			return
		}
		cs.attempted++
		if callErr != nil {
			if errors.Is(callErr, kvwire.ErrNotFound) {
				cs.failf("%s %s: not found", kindNames[kind], key)
			} else {
				// A transport error leaves nothing to measure: stop
				// this client, and let the caller report the phase.
				cs.failf("%s %s: %v", kindNames[kind], key, callErr)
				cs.err = callErr
				break
			}
		}
		if cs.sb != nil {
			cs.sb.add(clientSpanFor[kind], root, n, cs.sb.at(t0), cs.sb.at(t1))
		}
		cs.lat[kind] = append(cs.lat[kind], int64(t1.Sub(t0)))
		cs.log = append(cs.log, opRec{kind: kind, id: op.KeyID})
		if !lim.until.IsZero() && t1.After(lim.until) {
			break
		}
	}
}
