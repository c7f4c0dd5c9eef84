// Package hopscotch implements the fixed-capacity hopscotch hash table
// that RHIK uses for each record-layer index page (§IV-A1). A table holds
// exactly R records of the form {key signature, physical page address,
// hopinfo}; R is chosen so the table fills one flash page (Eq. 1). The
// table's only state is that page image, probed in place, so moving a
// table between flash and DRAM is a word copy with no decode step.
// Collisions are resolved by hopscotch displacement within a hop range of
// H slots (32 by default). When no slot can be freed within the hop range
// the insert fails with ErrNoSlot — the paper's "uncorrectable error"
// whose rate Fig. 8 studies.
package hopscotch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/hash"
)

// SlotSize is the serialized size of one record in the default 64-bit
// signature mode: an 8-byte key signature, a 5-byte physical page address,
// and a 4-byte hopinfo bitmap — the kh + ppa + hi of Eq. 1. Wide (128-bit
// signature) tables use SlotSizeWide.
const SlotSize = 8 + 5 + 4

// SlotSizeWide is the serialized slot size with 128-bit key signatures,
// the paper's proposed higher-resolution alternative (§IV-A3).
const SlotSizeWide = 16 + 5 + 4

// MaxHopRange is the widest supported hop range; the hopinfo bitmap is 32
// bits, one per slot in the neighborhood.
const MaxHopRange = 32

// emptyPPA marks an unoccupied slot; it doubles as the 40-bit PPA mask.
// Physical page addresses are 40-bit and the emulated devices stay far
// below 2^40-1 pages.
const emptyPPA uint64 = 1<<40 - 1

// ErrNoSlot is returned by Put when hopscotch displacement cannot free a
// slot within the hop range of the key's home bucket. The caller (RHIK)
// surfaces this as an index collision abort.
var ErrNoSlot = errors.New("hopscotch: no free slot within hop range")

// Table is a fixed-capacity hopscotch hash table mapping 64-bit key
// signatures to physical page addresses. Its state is its flash page
// image, held as little-endian 64-bit words in column order:
//
//	sigs [R]uint64  low signature halves
//	his  [R]uint64  high signature halves (wide tables only)
//	hops [R]uint32  hopinfo bitmaps, two per word
//	ppas [R]uint40  page addresses, packed; all-ones marks an empty slot
//
// That is R·SlotSize bytes (R·SlotSizeWide when wide), the footprint
// Eq. 1 budgets; EncodeTo and DecodeFrom copy it word for word. A slot is
// occupied exactly when its PPA is not the empty sentinel, and then
// exactly one hop bit (in its home bucket's bitmap) points at it; the
// other fields of an empty slot are ignored.
//
// Mutations are not safe for concurrent use — RHIK serializes them under
// the shard write lock — but the table carries a seqlock version counter
// so OPTIMISTIC readers may race mutators: a reader snapshots the version
// (SeqSnapshot), probes with GetOptimistic, and re-checks (SeqValidate);
// a mismatch means the read overlapped a write and must be retried or
// escalated. Put and Delete write words atomically, so a racing probe
// reads torn values at worst, never racy memory; validation rejects them.
// Reset and DecodeFrom rewrite the whole image with plain stores: they
// are only called on tables no reader can reach (see DESIGN.md §4b). The
// counter is odd for the duration of every mutation and bumped to the
// next even value when it completes; Invalidate parks it odd permanently
// when the table leaves reader reachability (eviction, migration, pool
// recycling), so stale probes can never validate.
type Table struct {
	seq  atomic.Uint64
	w    []uint64 // the page image; bytes past EncodedBytes are padding
	r    int      // capacity R
	hopW int      // word index of the hops column
	ppaB int      // byte offset of the ppas column
	n    int
	hop  int
	wide bool
}

// beginWrite makes the sequence odd for the duration of a mutation.
// The formula lands on an odd value whether the current value is even
// (normal bracket) or already odd (mutating a poisoned table, e.g.
// Reset while pooled), so brackets compose with Invalidate.
func (t *Table) beginWrite() {
	v := t.seq.Load()
	t.seq.Store(v + 1 + (v & 1))
}

// endWrite publishes the mutation by moving the sequence to the next
// even value.
func (t *Table) endWrite() { t.seq.Add(1) }

// Invalidate permanently poisons the table's version counter (leaves it
// odd) so any in-flight optimistic read fails validation. Call it
// whenever the table leaves the reader-reachable directory: cache
// eviction, migration source teardown, resize teardown. The next full
// mutation bracket (Reset/DecodeFrom on pool reuse) revives the counter.
func (t *Table) Invalidate() { t.beginWrite() }

// SeqSnapshot returns the current version counter and whether the table
// is stable (no mutation in flight, not invalidated). Optimistic
// readers call it before probing; !ok means retry or escalate now.
func (t *Table) SeqSnapshot() (uint64, bool) {
	v := t.seq.Load()
	return v, v&1 == 0
}

// SeqValidate reports whether the version counter still equals the
// earlier snapshot v — i.e. no mutation started since. Readers call it
// after probing (and again after copying any dependent data out).
func (t *Table) SeqValidate(v uint64) bool { return t.seq.Load() == v }

// New returns an empty 64-bit-signature table with the given slot
// capacity and hop range. Hop ranges larger than MaxHopRange or the
// capacity are clamped.
func New(capacity, hopRange int) *Table {
	return newTable(capacity, hopRange, false)
}

// NewWide returns an empty table storing 128-bit key signatures. Its
// slots are larger (SlotSizeWide), so a page-sized table holds fewer
// records — the capacity/false-positive trade-off Eq. 1 exposes.
func NewWide(capacity, hopRange int) *Table {
	return newTable(capacity, hopRange, true)
}

func newTable(capacity, hopRange int, wide bool) *Table {
	if capacity < 1 {
		panic(fmt.Sprintf("hopscotch: capacity %d < 1", capacity))
	}
	if hopRange < 1 {
		hopRange = 1
	}
	if hopRange > MaxHopRange {
		hopRange = MaxHopRange
	}
	if hopRange > capacity {
		hopRange = capacity
	}
	hopW := capacity
	if wide {
		hopW = 2 * capacity
	}
	t := &Table{r: capacity, hopW: hopW, ppaB: 8*hopW + 4*capacity, hop: hopRange, wide: wide}
	t.w = make([]uint64, (t.EncodedBytes()+7)/8)
	t.Reset()
	return t
}

// Wide reports whether the table stores 128-bit signatures.
func (t *Table) Wide() bool { return t.wide }

// SlotSizeOf reports the serialized slot size of this table.
func (t *Table) SlotSizeOf() int {
	if t.Wide() {
		return SlotSizeWide
	}
	return SlotSize
}

// Len reports the number of stored records.
func (t *Table) Len() int { return t.n }

// Cap reports the slot capacity R.
func (t *Table) Cap() int { return t.r }

// HopRange reports the hop range H.
func (t *Table) HopRange() int { return t.hop }

// Occupancy reports Len/Cap in [0,1].
func (t *Table) Occupancy() float64 { return float64(t.n) / float64(t.r) }

func (t *Table) home(sig uint64) int {
	// The record layer's "fixed hash function": a full 64-bit remix so the
	// in-table position is independent of the directory's low-bit
	// selection of the table itself.
	return int(hash.Mix64(sig) % uint64(t.r))
}

func (t *Table) dist(from, to int) int {
	d := to - from
	if d < 0 {
		d += t.r
	}
	return d
}

func (t *Table) hiOf(slot int) uint64 {
	if !t.wide {
		return 0
	}
	return t.w[t.r+slot]
}

func (t *Table) hopAt(b int) uint32 {
	return uint32(t.w[t.hopW+b>>1] >> (uint(b&1) * 32))
}

// ppaAt reads slot's 40-bit PPA, which may straddle two words.
func (t *Table) ppaAt(slot int) uint64 {
	off := t.ppaB + 5*slot
	i, sh := off>>3, uint(off&7)*8
	v := t.w[i] >> sh
	if sh > 24 {
		v |= t.w[i+1] << (64 - sh)
	}
	return v & emptyPPA
}

// match reports whether slot holds (lo, hi). Callers reach slot through a
// hop bit, which implies it is occupied.
func (t *Table) match(slot int, lo, hi uint64) bool {
	return t.w[slot] == lo && t.hiOf(slot) == hi
}

// Get returns the physical page address stored for sig.
func (t *Table) Get(sig uint64) (ppa uint64, ok bool) { return t.GetWide(sig, 0) }

// GetWide looks up a record by its full (lo, hi) signature. In 64-bit
// tables hi must be 0.
func (t *Table) GetWide(lo, hi uint64) (ppa uint64, ok bool) {
	home := t.home(lo)
	for hop := t.hopAt(home); hop != 0; hop &= hop - 1 {
		slot := (home + bits.TrailingZeros32(hop)) % t.r
		if t.match(slot, lo, hi) {
			return t.ppaAt(slot), true
		}
	}
	return 0, false
}

// GetOptimistic is GetWide for seqlock readers racing a mutator: every
// word access is an atomic load and it never reads the plain-written n
// field. A set hop bit implies the slot was occupied at some even
// sequence, and a PPA straddling two words is read with two loads; torn
// states are rejected by the caller's SeqValidate. The returned value is
// only meaningful if the surrounding SeqSnapshot/SeqValidate pair passes.
func (t *Table) GetOptimistic(lo, hi uint64) (ppa uint64, ok bool) {
	home := t.home(lo)
	hops := uint32(atomic.LoadUint64(&t.w[t.hopW+home>>1]) >> (uint(home&1) * 32))
	for ; hops != 0; hops &= hops - 1 {
		slot := (home + bits.TrailingZeros32(hops)) % t.r
		if atomic.LoadUint64(&t.w[slot]) == lo && t.hiOptimistic(slot) == hi {
			return t.ppaOptimistic(slot), true
		}
	}
	return 0, false
}

func (t *Table) hiOptimistic(slot int) uint64 {
	if !t.wide {
		return 0
	}
	return atomic.LoadUint64(&t.w[t.r+slot])
}

func (t *Table) ppaOptimistic(slot int) uint64 {
	off := t.ppaB + 5*slot
	i, sh := off>>3, uint(off&7)*8
	v := atomic.LoadUint64(&t.w[i]) >> sh
	if sh > 24 {
		v |= atomic.LoadUint64(&t.w[i+1]) << (64 - sh)
	}
	return v & emptyPPA
}

// storeHop atomically rewrites bucket b's hopinfo bitmap, preserving the
// other half of its word.
func (t *Table) storeHop(b int, hop uint32) {
	i, sh := t.hopW+b>>1, uint(b&1)*32
	atomic.StoreUint64(&t.w[i], t.w[i]&^(0xffffffff<<sh)|uint64(hop)<<sh)
}

// storePPA atomically rewrites slot's PPA, preserving its neighbours'
// bytes in the one or two words it spans.
func (t *Table) storePPA(slot int, ppa uint64) {
	ppa &= emptyPPA
	off := t.ppaB + 5*slot
	i, sh := off>>3, uint(off&7)*8
	atomic.StoreUint64(&t.w[i], t.w[i]&^(emptyPPA<<sh)|ppa<<sh)
	if sh > 24 {
		atomic.StoreUint64(&t.w[i+1], t.w[i+1]&^(emptyPPA>>(64-sh))|ppa>>(64-sh))
	}
}

// storeSlot atomically writes a record into slot.
func (t *Table) storeSlot(slot int, lo, hi, ppa uint64) {
	atomic.StoreUint64(&t.w[slot], lo)
	if t.wide {
		atomic.StoreUint64(&t.w[t.r+slot], hi)
	}
	t.storePPA(slot, ppa)
}

// Put inserts or updates the record for sig. It reports whether an
// existing record was replaced. ErrNoSlot means the neighborhood is
// saturated and the operation must be aborted.
func (t *Table) Put(sig, ppa uint64) (replaced bool, err error) {
	return t.PutWide(sig, 0, ppa)
}

// PutWide inserts or updates a record keyed by its full (lo, hi)
// signature.
func (t *Table) PutWide(lo, hi, ppa uint64) (replaced bool, err error) {
	home := t.home(lo)
	for hop := t.hopAt(home); hop != 0; hop &= hop - 1 {
		slot := (home + bits.TrailingZeros32(hop)) % t.r
		if t.match(slot, lo, hi) {
			t.beginWrite()
			t.storePPA(slot, ppa)
			t.endWrite()
			return true, nil
		}
	}
	if t.n == t.r {
		return false, ErrNoSlot
	}

	// Linear-probe for the nearest free slot.
	free := -1
	for d := 0; d < t.r; d++ {
		slot := (home + d) % t.r
		if t.ppaAt(slot) == emptyPPA {
			free = slot
			break
		}
	}
	if free < 0 {
		return false, ErrNoSlot
	}

	t.beginWrite()
	// Hop the free slot backward until it is within range of home.
	for t.dist(home, free) >= t.hop {
		moved := false
		for j := t.hop - 1; j >= 1; j-- {
			cand := (free - j + t.r) % t.r
			candPPA := t.ppaAt(cand)
			if candPPA == emptyPPA {
				continue
			}
			candHome := t.home(t.w[cand])
			if t.dist(candHome, free) >= t.hop {
				continue
			}
			// Move the candidate record into the free slot.
			t.storeSlot(free, t.w[cand], t.hiOf(cand), candPPA)
			t.storePPA(cand, emptyPPA)
			t.storeHop(candHome,
				t.hopAt(candHome)&^(1<<uint(t.dist(candHome, cand)))|1<<uint(t.dist(candHome, free)))
			free = cand
			moved = true
			break
		}
		if !moved {
			t.endWrite()
			return false, ErrNoSlot
		}
	}

	t.storeSlot(free, lo, hi, ppa)
	t.storeHop(home, t.hopAt(home)|1<<uint(t.dist(home, free)))
	t.n++
	t.endWrite()
	return false, nil
}

// Delete removes the record for sig, returning its physical page address.
func (t *Table) Delete(sig uint64) (ppa uint64, ok bool) { return t.DeleteWide(sig, 0) }

// DeleteWide removes a record keyed by its full (lo, hi) signature.
func (t *Table) DeleteWide(lo, hi uint64) (ppa uint64, ok bool) {
	home := t.home(lo)
	for hop := t.hopAt(home); hop != 0; hop &= hop - 1 {
		i := bits.TrailingZeros32(hop)
		slot := (home + i) % t.r
		if t.match(slot, lo, hi) {
			ppa = t.ppaAt(slot)
			t.beginWrite()
			t.storePPA(slot, emptyPPA)
			t.storeHop(home, t.hopAt(home)&^(1<<uint(i)))
			t.n--
			t.endWrite()
			return ppa, true
		}
	}
	return 0, false
}

// Range calls f for every stored record until f returns false. Iteration
// order is slot order, not insertion order.
func (t *Table) Range(f func(sig, ppa uint64) bool) {
	for i := 0; i < t.r; i++ {
		if ppa := t.ppaAt(i); ppa != emptyPPA && !f(t.w[i], ppa) {
			return
		}
	}
}

// RangeWide is Range with the full (lo, hi) signature exposed.
func (t *Table) RangeWide(f func(lo, hi, ppa uint64) bool) {
	for i := 0; i < t.r; i++ {
		if ppa := t.ppaAt(i); ppa != emptyPPA && !f(t.w[i], t.hiOf(i), ppa) {
			return
		}
	}
}

// Reset empties the table in place: zero signatures and hop bitmaps, the
// empty sentinel in every PPA. It runs a full write bracket, so it also
// revives an Invalidate-poisoned counter on pool reuse.
func (t *Table) Reset() {
	t.beginWrite()
	i := t.ppaB / 8
	clear(t.w[:i])
	t.w[i] = ^uint64(0) << (8 * uint(t.ppaB%8))
	for i++; i < len(t.w); i++ {
		t.w[i] = ^uint64(0)
	}
	t.n = 0
	t.endWrite()
}

// EncodedSize reports the number of bytes a 64-bit-signature table with
// the given capacity occupies on flash.
func EncodedSize(capacity int) int { return capacity * SlotSize }

// EncodedSizeWide is EncodedSize for 128-bit-signature tables.
func EncodedSizeWide(capacity int) int { return capacity * SlotSizeWide }

// EncodedBytes reports the flash footprint of this table.
func (t *Table) EncodedBytes() int { return t.r * t.SlotSizeOf() }

// EncodeTo writes the table's page image into buf, which must hold at
// least t.EncodedBytes() bytes.
func (t *Table) EncodeTo(buf []byte) {
	need := t.EncodedBytes()
	if len(buf) < need {
		panic(fmt.Sprintf("hopscotch: encode buffer %d < %d", len(buf), need))
	}
	full := need / 8
	for i, v := range t.w[:full] {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	if need > 8*full {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], t.w[full])
		copy(buf[8*full:need], tail[:])
	}
}

// DecodeFrom loads a page image produced by EncodeTo and recounts the
// records from the hop bitmaps. The buffer's capacity and signature width
// must match the table's.
func (t *Table) DecodeFrom(buf []byte) error {
	need := t.EncodedBytes()
	if len(buf) < need {
		return fmt.Errorf("hopscotch: decode buffer %d < %d", len(buf), need)
	}
	full := need / 8
	t.beginWrite()
	for i := range t.w[:full] {
		t.w[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	if need > 8*full {
		var tail [8]byte
		copy(tail[:], buf[8*full:need])
		t.w[full] = binary.LittleEndian.Uint64(tail[:])
	}
	n := 0
	for _, v := range t.w[t.hopW : t.hopW+t.r/2] {
		n += bits.OnesCount64(v)
	}
	if t.r&1 != 0 {
		n += bits.OnesCount32(t.hopAt(t.r - 1))
	}
	t.n = n
	t.endWrite()
	return nil
}
