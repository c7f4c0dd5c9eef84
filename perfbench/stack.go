package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Fixed settings: every workload runs 2 shards behind an in-process
// loopback server, driven by 2 closed-loop clients over 2 pooled
// connections.
const (
	numShards    = 2
	numClients   = 2
	preloadBatch = 256
)

// stack is the system under test: a shard set served over loopback TCP
// and a pooled client connected to it.
type stack struct {
	spec   spec
	walDir string
	set    *shard.Set
	srv    *server.Server
	cl     *client.Client
	addr   string
	served chan error
	puts   []putRec // every acknowledged client PUT, in no particular order
	seqs   [numWriters]uint32
}

func (s spec) options(walDir string) rhik.Options {
	opts := rhik.Options{Shards: numShards, CacheBudget: s.cache, IteratorPrefixLen: s.prefixLen}
	if s.wal {
		// The log must live inside the working directory, on whatever
		// disk holds it. fsync there measures the host's disk, which
		// varied 2-3x between runs, so PUTs pay for the WAL code
		// (group commit, encoding, write) but not a per-group fsync.
		opts.WAL = rhik.WALOptions{Dir: walDir, Fsync: "none"}
	}
	return opts
}

// openStack opens a fresh store, preloads every record, starts the
// server and connects the client. It does not warm up.
func openStack(s spec, walDir string) (*stack, error) {
	set, err := rhik.OpenSet(s.options(walDir))
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	st := &stack{spec: s, walDir: walDir, set: set}
	if err := preload(set, s); err != nil {
		set.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		set.Close()
		return nil, err
	}
	st.srv = server.New(set, server.Options{})
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.addr = ln.Addr().String()
	st.cl, err = client.Dial(client.Options{Addr: st.addr, Conns: numClients})
	if err != nil {
		st.shutdown()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return st, nil
}

// preload stores key IDs [0, records) in order, as batches.
func preload(set *shard.Set, s spec) error {
	ops := make([]shard.Op, 0, preloadBatch)
	for id := uint64(0); id < s.records; {
		ops = ops[:0]
		for ; id < s.records && len(ops) < preloadBatch; id++ {
			ops = append(ops, shard.Op{
				Kind:  workload.OpStore,
				Key:   appendKey(nil, id),
				Value: appendValue(nil, id, writerPreload, 0, s.valueSize),
			})
		}
		res := set.Apply(ops, 0)
		for _, err := range res.Errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// redial replaces the client's pooled connections with fresh ones.
func (st *stack) redial() error {
	if err := st.cl.Close(); err != nil {
		return err
	}
	var err error
	st.cl, err = client.Dial(client.Options{Addr: st.addr, Conns: numClients})
	return err
}

// shutdown closes the client and drains the server, which checkpoints
// and closes the set.
func (st *stack) shutdown() error {
	var errs []error
	if st.cl != nil {
		errs = append(errs, st.cl.Close())
	}
	errs = append(errs, st.srv.Shutdown())
	if err := <-st.served; !errors.Is(err, server.ErrServerClosed) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// setUp runs one full set-up — open, preload, warm-up — and reports how
// long it took.
func setUp(s spec, walDir string, seed int64, c *checker) (*stack, time.Duration, error) {
	t0 := time.Now()
	st, err := openStack(s, walDir)
	if err != nil {
		return nil, 0, err
	}
	warm := runClients(st, streamSeed(seed, 0), writerWarmup, clientLimits{ops: s.warmup}, nil, c)
	if warm.err != nil {
		st.shutdown()
		return nil, 0, fmt.Errorf("warm-up: %w", warm.err)
	}
	return st, time.Since(t0), nil
}
