package rhik_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	rhik "repro"
	"repro/internal/workload"
)

// TestIntegrationMixedWorkloadWithRecovery drives the full stack — log
// writes, resizes, GC, tombstones, checkpointing, crash recovery —
// against an in-memory oracle.
func TestIntegrationMixedWorkloadWithRecovery(t *testing.T) {
	// Shards: 1 — the mid-run resize assertion needs the whole key
	// population in one device's directory.
	db := openDB(t, rhik.Options{Capacity: 64 << 20, CheckpointEveryOps: 2500, Shards: 1})
	oracle := map[string][]byte{}
	rng := rand.New(rand.NewSource(99))

	const steps = 12000
	for i := 0; i < steps; i++ {
		id := uint64(rng.Intn(3000))
		key := workload.KeyBytes(id)
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // store / update
			val := workload.ValuePayload(uint64(i), 32+rng.Intn(400))
			if err := db.Store(key, val); err != nil {
				t.Fatalf("step %d store: %v", i, err)
			}
			oracle[string(key)] = val
		case 6, 7: // retrieve + verify
			want, exists := oracle[string(key)]
			got, err := db.Retrieve(key)
			if exists {
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("step %d retrieve mismatch: %v", i, err)
				}
			} else if !errors.Is(err, rhik.ErrNotFound) {
				t.Fatalf("step %d: expected not-found, got %v", i, err)
			}
		case 8: // delete
			err := db.Delete(key)
			if _, exists := oracle[string(key)]; exists {
				if err != nil {
					t.Fatalf("step %d delete: %v", i, err)
				}
				delete(oracle, string(key))
			} else if !errors.Is(err, rhik.ErrNotFound) {
				t.Fatalf("step %d: delete of absent key: %v", i, err)
			}
		case 9: // exist
			ok, err := db.Exist(key)
			if err != nil {
				t.Fatalf("step %d exist: %v", i, err)
			}
			if _, exists := oracle[string(key)]; ok != exists {
				t.Fatalf("step %d: exist=%v oracle=%v", i, ok, exists)
			}
		}
		// Mid-stream crash: everything checkpointed or programmed must
		// survive; the volatile window is bounded by the auto-checkpoint.
		if i == steps/2 {
			// Resize history is volatile device state: assert growth
			// happened before the power cycle wipes the counters.
			if db.Stats().Resizes == 0 {
				t.Fatal("no resizes in first half of integration run")
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.Restart(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Final verification sweep.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Restart(); err != nil {
		t.Fatal(err)
	}
	for k, want := range oracle {
		got, err := db.Retrieve([]byte(k))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("post-recovery key %x: %v", k, err)
		}
	}
	s := db.Stats()
	if s.Recoveries != 2 {
		t.Fatalf("recoveries = %d", s.Recoveries)
	}
	// The recovered directory must retain its grown size: post-restart
	// occupancy stays below the resize threshold without re-resizing.
	if s.DirectoryEntries < 2 {
		t.Fatalf("directory entries = %d after recovery, want grown index", s.DirectoryEntries)
	}
}

// TestIntegrationConcurrentClients exercises the facade's locking: many
// goroutines over disjoint key ranges. Run with -race to check the
// device's single-threaded invariants are protected.
func TestIntegrationConcurrentClients(t *testing.T) {
	db := openDB(t, rhik.Options{Capacity: 64 << 20})
	const (
		clients    = 8
		perClient  = 300
		valueBytes = 64
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := uint64(c) << 32
			for i := 0; i < perClient; i++ {
				key := workload.KeyBytes(base + uint64(i))
				val := workload.ValuePayload(base+uint64(i), valueBytes)
				if err := db.Store(key, val); err != nil {
					errs <- fmt.Errorf("client %d store %d: %w", c, i, err)
					return
				}
				got, err := db.Retrieve(key)
				if err != nil || !bytes.Equal(got, val) {
					errs <- fmt.Errorf("client %d readback %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.Stats().IndexRecords; got != clients*perClient {
		t.Fatalf("records = %d, want %d", got, clients*perClient)
	}
}

// TestIntegrationLargeValuesAndIterator mixes extent-sized values with
// iterator-mode signatures.
func TestIntegrationLargeValuesAndIterator(t *testing.T) {
	db := openDB(t, rhik.Options{Capacity: 128 << 20, IteratorPrefixLen: 4})
	big := workload.ValuePayload(7, 300<<10) // multi-page extent
	if err := db.Store([]byte("blob:huge"), big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Store([]byte(fmt.Sprintf("blob:%04d", i)), workload.ValuePayload(uint64(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.Retrieve([]byte("blob:huge"))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("extent readback: %v", err)
	}
	entries, err := db.Iterate([]byte("blob:"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 51 {
		t.Fatalf("iterate found %d, want 51", len(entries))
	}
	if e := entries[50]; string(e.Key) != "blob:huge" || !bytes.Equal(e.Value, big) {
		t.Fatalf("iterate extent readback: %q, %d bytes", e.Key, len(e.Value))
	}
	// Restart and iterate again: recovery must rebuild iterator state.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Restart(); err != nil {
		t.Fatal(err)
	}
	entries, err = db.Iterate([]byte("blob:"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 51 {
		t.Fatalf("post-recovery iterate found %d, want 51", len(entries))
	}
	if e := entries[50]; string(e.Key) != "blob:huge" || !bytes.Equal(e.Value, big) {
		t.Fatalf("post-recovery iterate extent readback: %q, %d bytes", e.Key, len(e.Value))
	}
}
