package device

import (
	"bytes"

	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
)

// readPair fetches the pair addressed by rp: from an open page buffer if
// still pending, else from flash through readFlashPair. When blocking is
// true the firmware waits for the data (key verification gates the
// command); otherwise only the completion time reflects the read and the
// firmware moves on (data-out phase of a retrieve). Callers hold the
// exclusive lock: the pending map is a plain Go map mutated by writers.
func (d *Device) readPair(rp layout.RP, withValue, blocking bool) (hdr layout.PairHeader, key, value []byte, done sim.Time, err error) {
	if p, ok := d.pending[rp]; ok {
		hdr = layout.PairHeader{KeyLen: len(p.key), ValueLen: len(p.value)}
		return hdr, p.key, p.value, d.env.now.Load(), nil
	}
	hdr, key, value, _, done, err = d.readFlashPair(d.env.now.Load(), rp, withValue)
	if err != nil {
		return hdr, nil, nil, done, err
	}
	if blocking {
		d.env.now.AdvanceTo(done)
	}
	return hdr, key, value, done, nil
}

// readFlashPair reads rp's head page from flash at time at and decodes
// the pair, plus the record's write epoch (the page spare's base plus the
// sig entry's delta). It never consults the pending map, so lock-free
// callers may use it once they have checked the page is programmed.
// Safe for concurrent readers: flash page reads are pure, the
// single-slot signature decode allocates nothing, and the timeline only
// moves through CAS-max advances. (Extent reassembly allocates, but only
// multi-page values take it.)
func (d *Device) readFlashPair(at sim.Time, rp layout.RP, withValue bool) (hdr layout.PairHeader, key, value []byte, recEpoch uint64, done sim.Time, err error) {
	data, spare, done, err := d.flash.Read(at, nand.PPA(rp.Page()))
	if err != nil {
		return hdr, nil, nil, 0, at, err
	}
	info, hdr, key, value, done, err := d.decodePair(done, data, rp, withValue)
	if err != nil {
		return hdr, nil, nil, 0, done, err
	}
	return hdr, key, value, layout.DataSpareEpoch(spare) + uint64(info.EpochDelta), done, nil
}

// decodePair decodes the pair in rp's slot of its head page data, whose
// read completed at done. For a multi-page value, when withValue is set,
// the continuation pages that follow the head page in the same block are
// read one after another from done and appended; the returned time is
// the last read's completion.
func (d *Device) decodePair(done sim.Time, data []byte, rp layout.RP, withValue bool) (info layout.SigInfo, hdr layout.PairHeader, key, value []byte, _ sim.Time, err error) {
	info, _, err = layout.SigInfoAt(data, rp.Slot())
	if err != nil {
		return info, hdr, nil, nil, done, err
	}
	hdr, key, value, err = layout.DecodePairAt(data, int(info.Offset))
	if err != nil || !withValue || hdr.ValueLen <= len(value) {
		return info, hdr, key, value, done, err
	}
	full := make([]byte, 0, hdr.ValueLen)
	full = append(full, value...)
	ppa := nand.PPA(rp.Page())
	for i := 1; len(full) < hdr.ValueLen; i++ {
		cont, _, cd, err := d.flash.Read(done, ppa+nand.PPA(i))
		if err != nil {
			return info, hdr, nil, nil, done, err
		}
		done = cd
		full = append(full, cont...)
	}
	return info, hdr, key, full[:hdr.ValueLen], done, nil
}

// retrieveValueHit completes a get served from the hot-value tier: no
// index probe, no flash. The charge sequence is identical in the
// exclusive and optimistic tiers (command arrival, command CPU, a zero
// metadata-read sample, value DMA, ack), so whichever tier hits produces
// the same timeline. Allocation-free when dst has capacity.
func (d *Device) retrieveValueHit(submitAt sim.Time, key, value, dst []byte) ([]byte, sim.Time) {
	arrive := d.hostXfer(submitAt, len(key))
	d.env.now.AdvanceTo(arrive)
	d.env.ChargeCPU(d.cfg.CmdCPU)
	d.metaPerOp.Record(0)
	d.metaPerGet.Record(0)
	done := d.hostXfer(d.env.now.Load(), len(value)).Add(d.cfg.AckOverhead)
	d.stats.retrieves.Add(1)
	d.stats.bytesRead.Add(int64(len(value)))
	d.latGet.Record(int64(done.Sub(submitAt)))
	return append(dst, value...), done
}

// Retrieve executes a get command, returning the value (a copy) and the
// command's completion time. The stored key is compared to the request
// key before returning, so signature collisions can never return the
// wrong value (§IV-A3).
func (d *Device) Retrieve(submitAt sim.Time, key []byte) ([]byte, sim.Time, error) {
	return d.RetrieveAppend(submitAt, key, nil)
}

// RetrieveAppend is Retrieve with the value appended to dst, letting the
// caller reuse one buffer across gets (the allocation-free hot path).
// Requires the caller's exclusive lock, like Retrieve.
func (d *Device) RetrieveAppend(submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	if d.closed.Load() {
		return dst, d.env.now.Load(), ErrClosed
	}
	d.collectRetired()
	sig := d.scheme.Compute(key)
	var vgen uint64
	if d.vcache != nil {
		if v, ok := d.vcache.Lookup(sig.Lo, key); ok {
			out, done := d.retrieveValueHit(submitAt, key, v, dst)
			return out, done, nil
		}
		// Snapshot the bucket generation before the index probe so the
		// insert below is refused if any overwrite lands in between.
		vgen = d.vcache.Gen(sig.Lo)
	}
	arrive := d.hostXfer(submitAt, len(key))
	d.env.now.AdvanceTo(arrive)
	start := submitAt
	d.env.ChargeCPU(d.cfg.CmdCPU)
	metaBefore := d.env.metaReads.Load()

	rp, ok, err := d.idx.Lookup(sig)
	metaDelta := d.env.metaReads.Load() - metaBefore
	d.metaPerOp.Record(metaDelta)
	d.metaPerGet.Record(metaDelta)
	if err != nil {
		return dst, d.env.now.Load(), err
	}
	if !ok {
		return dst, d.env.now.Load(), ErrNotFound
	}
	hdr, storedKey, value, done, err := d.readPair(layout.RP(rp), true, false)
	if err != nil {
		return dst, done, err
	}
	if hdr.Tombstone() || !bytes.Equal(storedKey, key) {
		return dst, done, ErrNotFound
	}
	if now := d.env.now.Load(); done < now {
		done = now
	}
	// Value DMA back to the host, then the completion round trip.
	done = d.hostXfer(done, len(value)).Add(d.cfg.AckOverhead)
	d.stats.retrieves.Add(1)
	d.stats.bytesRead.Add(int64(len(value)))
	d.latGet.Record(int64(done.Sub(start)))
	if d.vcache != nil {
		d.vcache.Insert(vgen, sig.Lo, key, value)
	}
	return append(dst, value...), done, nil
}

// Exist executes a key-exist command. The index answers from key
// signatures; on a hit the stored key is fetched and compared, so the
// result is exact (the extra flash read the paper describes for explicit
// membership checks as signature collisions become likely).
func (d *Device) Exist(submitAt sim.Time, key []byte) (bool, sim.Time, error) {
	if d.closed.Load() {
		return false, d.env.now.Load(), ErrClosed
	}
	d.collectRetired()
	sig := d.scheme.Compute(key)
	arrive := d.hostXfer(submitAt, len(key))
	d.env.now.AdvanceTo(arrive)
	d.env.ChargeCPU(d.cfg.CmdCPU)
	metaBefore := d.env.metaReads.Load()

	rp, ok, err := d.idx.Lookup(sig)
	d.metaPerOp.Record(d.env.metaReads.Load() - metaBefore)
	if err != nil {
		return false, d.env.now.Load(), err
	}
	d.stats.exists.Add(1)
	if !ok {
		return false, d.env.now.Load(), nil
	}
	hdr, storedKey, _, done, err := d.readPair(layout.RP(rp), false, true)
	if err != nil {
		return false, done, err
	}
	return !hdr.Tombstone() && bytes.Equal(storedKey, key), d.env.now.Load(), nil
}
