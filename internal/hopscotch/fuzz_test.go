package hopscotch

import (
	"bytes"
	"testing"

	"repro/internal/hash"
)

// FuzzHopscotchTable differentially fuzzes a table against a map model.
// The input bytes choose the geometry (bit 7 of the second byte selects a
// wide, 128-bit-signature table) and an op stream; keys are drawn from a
// pool deliberately seeded with signatures sharing one home bucket
// (adversarial collisions that force hopscotch displacement chains), plus
// a spread of ordinary signatures. Wide tables also draw a second high
// half for every low half, so records that differ only in hi share a
// home bucket. After the op stream the table's page is written out and
// read into a fresh table, which must reproduce the model exactly, count
// its records from the page alone, and write out the same bytes again.
func FuzzHopscotchTable(f *testing.F) {
	f.Add([]byte{8, 2, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1})                           // puts then gets/deletes
	f.Add([]byte{3, 1, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})                     // overfill a tiny table
	f.Add([]byte{31, 8, 0, 9, 0, 9, 2, 9, 1, 9})                                // update + delete same key
	f.Add([]byte{60, 1})                                                        // no ops, empty roundtrip
	f.Add([]byte{13, 0x84, 0, 1, 0, 17, 0, 2, 0, 18, 1, 1, 2, 17, 1, 17, 1, 1}) // wide: same lo, two his
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + int(data[0])%61
		hopRange := 1 + int(data[1])%MaxHopRange
		wide := data[1]&0x80 != 0
		newT := New
		his := 1
		if wide {
			newT, his = NewWide, 2
		}
		tb := newT(capacity, hopRange)
		type key struct{ lo, hi uint64 }
		model := map[key]uint64{}

		// Key pool: half adversarial (same home bucket), half spread.
		pool := make([]uint64, 0, 16)
		for s := uint64(1); len(pool) < 8 && s < 1<<20; s++ {
			if int(hash.Mix64(s)%uint64(capacity)) == 0 {
				pool = append(pool, s)
			}
		}
		for s := uint64(1 << 32); len(pool) < 16; s += 0x9e3779b9 {
			pool = append(pool, s)
		}

		ops := data[2:]
		for i := 0; i+1 < len(ops); i += 2 {
			k := int(ops[i+1]) % (his * len(pool))
			sig := key{pool[k%len(pool)], uint64(k / len(pool))}
			ppa := uint64(i/2) + 1
			switch ops[i] % 3 {
			case 0: // put
				replaced, err := tb.PutWide(sig.lo, sig.hi, ppa)
				_, has := model[sig]
				if err != nil {
					if has {
						t.Fatalf("op %d: update of present sig %#x failed: %v", i, sig, err)
					}
					break // full neighborhood: model unchanged
				}
				if replaced != has {
					t.Fatalf("op %d: Put replaced=%v, model has=%v", i, replaced, has)
				}
				model[sig] = ppa
			case 1: // get
				got, ok := tb.GetWide(sig.lo, sig.hi)
				want, has := model[sig]
				if ok != has || (has && got != want) {
					t.Fatalf("op %d: Get(%#x) = (%d,%v), model (%d,%v)", i, sig, got, ok, want, has)
				}
			case 2: // delete
				got, ok := tb.DeleteWide(sig.lo, sig.hi)
				want, has := model[sig]
				if ok != has || (has && got != want) {
					t.Fatalf("op %d: Delete(%#x) = (%d,%v), model (%d,%v)", i, sig, got, ok, want, has)
				}
				delete(model, sig)
			}
			if tb.Len() != len(model) {
				t.Fatalf("op %d: Len=%d, model %d", i, tb.Len(), len(model))
			}
		}

		// Page out → page in → everything must survive byte-exactly.
		buf := make([]byte, tb.EncodedBytes())
		tb.EncodeTo(buf)
		fresh := newT(capacity, hopRange)
		if err := fresh.DecodeFrom(buf); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if fresh.Len() != len(model) {
			t.Fatalf("decoded Len=%d, model %d", fresh.Len(), len(model))
		}
		for sig, want := range model {
			if got, ok := fresh.GetWide(sig.lo, sig.hi); !ok || got != want {
				t.Fatalf("decoded Get(%#x) = (%d,%v), want %d", sig, got, ok, want)
			}
		}
		again := make([]byte, len(buf))
		fresh.EncodeTo(again)
		if !bytes.Equal(again, buf) {
			t.Fatalf("re-encoded page differs from the first encoding")
		}
	})
}
