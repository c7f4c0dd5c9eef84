package device

import (
	"bytes"
	"sort"

	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
)

// IterEntry is one key (and optionally its value) produced by Iterate.
type IterEntry struct {
	Key   []byte
	Value []byte
}

// Iterate enumerates keys sharing the given prefix (§VI "Integrated
// Iterator Support"). It requires an iterator-mode signature scheme
// (SigScheme.PrefixLen > 0) and an index implementing
// index.PrefixScanner. Under RHIK, prefix-sharing keys collapse into one
// directory bucket per directory generation, so the scan touches a
// single record table plus one pair read per candidate; other indexes
// (LSM runs, the multi-level cascade) enumerate at their own — much
// higher — flash cost, which is exactly the asymmetry the cross-engine
// shootout measures. Candidates whose keys do not actually share the
// prefix (hash collisions) are filtered by comparing the stored key.
func (d *Device) Iterate(submitAt sim.Time, prefix []byte, withValues bool) ([]IterEntry, sim.Time, error) {
	if d.closed.Load() {
		return nil, d.env.now.Load(), ErrClosed
	}
	if d.scheme.PrefixLen == 0 {
		return nil, d.env.now.Load(), ErrNoIterator
	}
	sc, ok := d.idx.(index.PrefixScanner)
	if !ok {
		return nil, d.env.now.Load(), ErrNoIterator
	}
	d.env.now.AdvanceTo(submitAt)
	d.env.ChargeCPU(d.cfg.CmdCPU)

	// All keys with this prefix share the signature's low 32 bits.
	rps, err := sc.PrefixRecords(d.scheme.PrefixLow(prefix))
	if err != nil {
		return nil, d.env.now.Load(), err
	}

	out, err := d.iterateStaged(rps, prefix, withValues)
	if err != nil {
		return nil, d.env.now.Load(), err
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	d.stats.iterates.Add(1)
	return out, d.env.now.Load(), nil
}

// iterateStaged is Iterate's candidate sweep with prefix-group
// prefetch: an iterator-mode signature group's records cluster on a few
// log pages, so each distinct head page is read from flash once and
// every sibling record on it decodes from the staged buffer. Records
// still in an open page buffer come from the pending map, as in
// readPair. Candidate order (and therefore the timeline) stays exactly
// the enumeration order — only duplicate page reads disappear, counted
// in PrefetchHits.
func (d *Device) iterateStaged(rps []uint64, prefix []byte, withValues bool) ([]IterEntry, error) {
	var out []IterEntry
	staged := make(map[nand.PPA][]byte, len(rps))
	for _, rp0 := range rps {
		rp := layout.RP(rp0)
		var hdr layout.PairHeader
		var key, value []byte
		if p, ok := d.pending[rp]; ok {
			hdr = layout.PairHeader{KeyLen: len(p.key), ValueLen: len(p.value)}
			key, value = p.key, p.value
		} else {
			ppa := nand.PPA(rp.Page())
			data, ok := staged[ppa]
			var done sim.Time
			var err error
			if ok {
				d.stats.prefetchHits.Add(1)
			} else {
				data, _, done, err = d.flash.Read(d.env.now.Load(), ppa)
				if err != nil {
					return nil, err
				}
				d.env.now.AdvanceTo(done)
				staged[ppa] = data
			}
			// Extent continuations are read but not staged: extents
			// never share pages.
			_, hdr, key, value, done, err = d.decodePair(d.env.now.Load(), data, rp, withValues)
			if err != nil {
				return nil, err
			}
			d.env.now.AdvanceTo(done)
		}
		if hdr.Tombstone() || !bytes.HasPrefix(key, prefix) {
			continue
		}
		e := IterEntry{Key: append([]byte(nil), key...)}
		if withValues {
			e.Value = append([]byte(nil), value...)
		}
		out = append(out, e)
	}
	return out, nil
}
