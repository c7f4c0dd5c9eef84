package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/nand"
	"repro/internal/sim"
)

// TestSnapshotFrozenReads: point reads and iteration through a snapshot
// keep answering the capture-instant values while overwrites and
// deletes land on the live set. Every hundredth value spans several
// flash pages, so the live GET tiers and both snapshot readers must
// reassemble extents.
func TestSnapshotFrozenReads(t *testing.T) {
	set := newSet(t, 4)
	defer set.Close()

	const n = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("frz%05d", i)) }
	val := func(gen, i int) []byte {
		v := []byte(fmt.Sprintf("g%d-%d", gen, i))
		if i%100 == 0 {
			v = bytes.Repeat(v, (80<<10)/len(v)+1) // 32 KiB pages: a 3-page extent
		}
		return v
	}
	for i := 0; i < n; i++ {
		if err := set.Store(key(i), val(1, i)); err != nil {
			t.Fatal(err)
		}
	}

	// The live read tiers reassemble the extents too. Both device entry
	// points are called directly, so each tier is pinned: the exclusive
	// body, and the lock-free one, which must not refuse (the checkpoint
	// flushes the open pages it cannot read).
	if err := set.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 100 {
		sh := set.shardOf(key(i))
		v, _, err := sh.dev.RetrieveAppend(sh.last.Load(), key(i), nil)
		if err != nil || !bytes.Equal(v, val(1, i)) {
			t.Fatalf("exclusive get %d: %d bytes, %v", i, len(v), err)
		}
		v, _, err = sh.dev.TryRetrieveOptimistic(sh.last.Load(), key(i), nil)
		if err != nil || !bytes.Equal(v, val(1, i)) {
			t.Fatalf("optimistic get %d: %d bytes, %v", i, len(v), err)
		}
	}

	ss, err := set.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	defer ss.Release()
	if ss.Records() != n {
		t.Fatalf("snapshot holds %d records, want %d", ss.Records(), n)
	}
	epoch := ss.Epoch()

	// Mutate everything: overwrite evens, delete odds, add fresh keys.
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if err := set.Store(key(i), val(2, i)); err != nil {
				t.Fatal(err)
			}
		} else if err := set.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < n+50; i++ {
		if err := set.Store(key(i), val(2, i)); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < n; i++ {
		v, err := ss.Get(key(i))
		if err != nil || !bytes.Equal(v, val(1, i)) {
			t.Fatalf("snapshot get %d: %q/%v, want %q", i, v, err, val(1, i))
		}
	}
	// Keys born after the capture are absent in the snapshot.
	if _, err := ss.Get(key(n)); !errors.Is(err, device.ErrNotFound) {
		t.Fatalf("snapshot sees post-capture key: %v", err)
	}
	if _, err := ss.Get([]byte("never-stored")); !errors.Is(err, device.ErrNotFound) {
		t.Fatalf("snapshot get absent: %v", err)
	}

	entries, err := ss.Iterate(nil)
	if err != nil {
		t.Fatalf("iterate: %v", err)
	}
	if len(entries) != n {
		t.Fatalf("iterate returned %d entries, want %d", len(entries), n)
	}
	for i, e := range entries {
		if i > 0 && bytes.Compare(entries[i-1].Key, e.Key) >= 0 {
			t.Fatalf("iterate unsorted at %d", i)
		}
		if !bytes.Equal(e.Key, key(i)) || !bytes.Equal(e.Value, val(1, i)) {
			t.Fatalf("iterate entry %d: %q=%q", i, e.Key, e.Value)
		}
	}

	// Epoch is stable across the snapshot's life.
	if ss.Epoch() != epoch {
		t.Fatalf("epoch drifted: %d -> %d", epoch, ss.Epoch())
	}
	// A fresh capture with no intervening commits reports a matching
	// epoch; one after a commit reports a later one.
	ss2, err := set.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e2 := ss2.Epoch()
	ss2.Release()
	if e2 <= epoch {
		t.Fatalf("post-mutation capture epoch %d not after %d", e2, epoch)
	}
	if err := set.Store(key(0), val(3, 0)); err != nil {
		t.Fatal(err)
	}
	ss3, err := set.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ss3.Epoch() <= e2 {
		t.Fatalf("epoch did not advance past %d after a store", e2)
	}
	ss3.Release()

	st := set.Stats()
	if st.SnapshotsOpen != 1 || st.SnapshotReads == 0 {
		t.Fatalf("stats: open=%d reads=%d", st.SnapshotsOpen, st.SnapshotReads)
	}
}

// TestSnapshotRelease: reads after release fail, release is idempotent,
// and the open-snapshot gauge drops back to zero.
func TestSnapshotRelease(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	if err := set.Store([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	ss, err := set.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Valid() {
		t.Fatal("fresh snapshot invalid")
	}
	ss.Release()
	ss.Release() // idempotent
	if ss.Valid() {
		t.Fatal("released snapshot still valid")
	}
	if _, err := ss.Get([]byte("k")); !errors.Is(err, device.ErrSnapshotReleased) {
		t.Fatalf("get after release: %v", err)
	}
	if _, err := ss.Iterate(nil); !errors.Is(err, device.ErrSnapshotReleased) {
		t.Fatalf("iterate after release: %v", err)
	}
	if open := set.Stats().SnapshotsOpen; open != 0 {
		t.Fatalf("SnapshotsOpen = %d after release", open)
	}
}

// TestSnapshotInvalidatedByRestart: a power cycle reclaims flash the
// frozen view references, so the snapshot must refuse to read rather
// than serve recycled bytes.
func TestSnapshotInvalidatedByRestart(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	for i := 0; i < 50; i++ {
		if err := set.Store([]byte(fmt.Sprintf("rst%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := set.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Release()
	if err := set.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if ss.Valid() {
		t.Fatal("snapshot valid after restart")
	}
	if _, err := ss.Get([]byte("rst000")); !errors.Is(err, device.ErrSnapshotInvalid) {
		t.Fatalf("get after restart: %v", err)
	}
	if _, err := ss.Iterate(nil); !errors.Is(err, device.ErrSnapshotInvalid) {
		t.Fatalf("iterate after restart: %v", err)
	}
	// The live set recovered and serves normally.
	if v, err := set.Retrieve([]byte("rst000")); err != nil || string(v) != "v" {
		t.Fatalf("live read after restart: %q/%v", v, err)
	}
	// A fresh capture of the recovered state works.
	ss2, err := set.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot after restart: %v", err)
	}
	if v, err := ss2.Get([]byte("rst000")); err != nil || string(v) != "v" {
		t.Fatalf("fresh snapshot read: %q/%v", v, err)
	}
	ss2.Release()
}

// TestSnapshotSurvivesGC: churn overwrites hard enough to force garbage
// collection while a snapshot is open; the frozen view's blocks are
// excluded from GC victims, so every capture-instant value must still
// read back exactly. Uses a compact 2 MiB geometry so churn actually
// exhausts the free pool.
func TestSnapshotSurvivesGC(t *testing.T) {
	set, err := New(1, device.Config{NAND: &nand.Config{
		Channels: 2, DiesPerChan: 2, BlocksPerDie: 16, PagesPerBlock: 8,
		PageSize: 8 * 1024, SpareSize: 256,
		ReadLatency: 60 * sim.Microsecond, ProgramLatency: 700 * sim.Microsecond,
		EraseLatency: 3500 * sim.Microsecond, ChannelMBps: 800,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	const n = 64
	key := func(i int) []byte { return []byte(fmt.Sprintf("gc%04d", i)) }
	base := bytes.Repeat([]byte("s"), 1024)
	for i := 0; i < n; i++ {
		if err := set.Store(key(i), append(base, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := set.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Release()

	// Churn: overwrite a small working set until total writes far exceed
	// the 2 MiB capacity, so GC demonstrably runs with the snapshot open.
	churn := bytes.Repeat([]byte("c"), 2048)
	rng := rand.New(rand.NewSource(42))
	dev := set.Shard(0).Device()
	for i := 0; i < 4000 && dev.Stats().GCRuns < 3; i++ {
		k := []byte(fmt.Sprintf("churn%02d", rng.Intn(16)))
		if err := set.Store(k, churn); err != nil {
			if errors.Is(err, device.ErrDeviceFull) {
				break
			}
			t.Fatal(err)
		}
	}
	if dev.Stats().GCRuns == 0 {
		t.Fatal("churn never triggered GC; the test geometry regressed")
	}
	for i := 0; i < n; i++ {
		v, err := ss.Get(key(i))
		if err != nil || len(v) != len(base)+1 || v[len(v)-1] != byte(i) {
			t.Fatalf("snapshot get %d after GC: len=%d err=%v", i, len(v), err)
		}
	}
}

// TestSnapshotConcurrentWithWriters hammers a snapshot with parallel
// readers while writers mutate the live set, under -race. Every
// snapshot read must return the capture-instant value, bit-exact.
func TestSnapshotConcurrentWithWriters(t *testing.T) {
	set := newSet(t, 4)
	defer set.Close()
	const n = 256
	key := func(i int) []byte { return []byte(fmt.Sprintf("cc%05d", i)) }
	for i := 0; i < n; i++ {
		if err := set.Store(key(i), []byte(fmt.Sprintf("frozen-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := set.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Release()

	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stop.Load(); i++ {
				k := key(rng.Intn(n))
				var err error
				if i%5 == 4 {
					err = set.Delete(k)
					if errors.Is(err, device.ErrNotFound) {
						err = nil
					}
				} else {
					err = set.Store(k, []byte(fmt.Sprintf("live-%d-%d", w, i)))
				}
				if err != nil {
					select {
					case errCh <- fmt.Errorf("writer %d: %w", w, err):
					default:
					}
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 400; i++ {
				j := rng.Intn(n)
				v, err := ss.Get(key(j))
				if err != nil || string(v) != fmt.Sprintf("frozen-%d", j) {
					select {
					case errCh <- fmt.Errorf("reader %d: key %d got %q/%v", r, j, v, err):
					default:
					}
					return
				}
			}
		}(r)
	}
	// One goroutine iterates the frozen view mid-churn.
	readers.Add(1)
	go func() {
		defer readers.Done()
		entries, err := ss.Iterate(nil)
		if err != nil || len(entries) != n {
			errCh <- fmt.Errorf("iterate: %d entries, %v", len(entries), err)
		}
	}()
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
