package core

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/sim"
)

// NeedsResize implements index.Resizer: true once total occupancy reaches
// the configured threshold (80 % by default, §IV-A2). While an
// incremental migration is in flight the index is already growing, so
// another resize never starts.
func (r *RHIK) NeedsResize() bool {
	if r.mig != nil {
		return false
	}
	return float64(r.n) >= r.cfg.OccupancyThreshold*float64(r.Capacity())
}

// ResizeEvents implements index.Resizer.
func (r *RHIK) ResizeEvents() []index.ResizeEvent { return r.resizes }

// Resize doubles the index (§IV-A2): the directory gains one bit, the
// record layer gains a second table per old bucket, and every record
// migrates using only its stored key signature — the KV pairs on flash
// are never read. The device halts the submission queue around this
// call, so the measured duration is the paper's "resizing time" (Fig. 7).
func (r *RHIK) Resize() error {
	if r.cfg.IncrementalResize {
		return r.startIncrementalResize()
	}
	start := r.env.Now()
	keysBefore := r.n

	oldG := r.g()
	oldD := len(oldG.dirs)
	newG := newGeneration(2 * oldD)
	newG.cache = r.newCache(newG)

	// The new generation is private until the swap below, so optimistic
	// readers keep validating against the old generation: a bucket they
	// probe is either untouched (the read linearizes before the resize)
	// or already unpublished/poisoned (the read fails validation and
	// escalates).
	for b := uint64(0); b < uint64(oldD); b++ {
		if err := r.splitBucket(oldG, newG, b, "resize"); err != nil {
			return err
		}
	}

	r.gen.Store(newG)
	r.cache = newG.cache
	r.dBits++

	if err := r.checkIO(); err != nil {
		return err
	}
	r.resizes = append(r.resizes, index.ResizeEvent{
		KeysBefore:  keysBefore,
		NewCapacity: r.Capacity(),
		Took:        r.env.Now().Sub(start),
	})
	return nil
}

// splitBucket migrates old-generation bucket b into buckets b and
// b+len(oldG.dirs) of newG, decided by that new directory bit of each
// record's stored signature. The source table leaves oldG's cache
// (unpublished and poisoned before its records move, so an optimistic
// reader still probing oldG fails validation instead of seeing a stale
// bucket) or is read off flash — at most one flash read, like any bucket
// access. Each non-empty half is cached and published in newG; an empty
// half needs no flash presence and is recycled. The superseded page is
// invalidated. op names the caller in errors.
func (r *RHIK) splitBucket(oldG, newG *generation, b uint64, op string) error {
	var src *tableEntry
	if e, ok := oldG.cache.Remove(b); ok {
		oldG.resident[b].Store(nil)
		e.table.Invalidate()
		src = e
	} else if oldG.dirs[b].has {
		t, err := r.readTable(oldG.dirs[b].ppa)
		if err != nil {
			return fmt.Errorf("core: %s read bucket %d: %w", op, b, err)
		}
		src = r.takeEntry(t)
	}

	oldD := uint64(len(oldG.dirs))
	halves := [2]*tableEntry{r.takeEntry(r.takeEmptyTable()), r.takeEntry(r.takeEmptyTable())}
	if src != nil {
		var migErr error
		r.env.ChargeCPU(sim.Duration(src.table.Len()) * r.cfg.MigrateCPUPerRecord)
		src.table.RangeWide(func(lo, hi, rp uint64) bool {
			dst := halves[0]
			if lo&oldD != 0 {
				dst = halves[1]
			}
			if _, err := dst.table.PutWide(lo, hi, rp); err != nil {
				migErr = fmt.Errorf("core: %s migration collision in bucket %d: %w", op, b, err)
				return false
			}
			return true
		})
		if migErr != nil {
			return migErr
		}
		r.retireEntry(src)
	}
	for i, e := range halves {
		nb := b + uint64(i)*oldD
		if e.table.Len() == 0 {
			r.recycleEntry(e)
			continue
		}
		e.dirty = true
		newG.cache.Put(nb, e, int64(e.table.EncodedBytes()))
		r.publish(newG, nb, e)
	}
	if oldG.dirs[b].has {
		r.env.Invalidate(oldG.dirs[b].ppa)
		delete(r.live, oldG.dirs[b].ppa)
		oldG.dirs[b].has = false
	}
	return nil
}
