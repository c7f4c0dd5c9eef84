package hopscotch

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	tb := New(64, 32)
	if _, err := tb.Put(42, 1000); err != nil {
		t.Fatal(err)
	}
	ppa, ok := tb.Get(42)
	if !ok || ppa != 1000 {
		t.Fatalf("Get = (%d,%v), want (1000,true)", ppa, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	ppa, ok = tb.Delete(42)
	if !ok || ppa != 1000 {
		t.Fatalf("Delete = (%d,%v)", ppa, ok)
	}
	if _, ok := tb.Get(42); ok {
		t.Fatal("Get found deleted record")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len after delete = %d", tb.Len())
	}
}

func TestPutUpdatesInPlace(t *testing.T) {
	tb := New(16, 8)
	if rep, _ := tb.Put(7, 100); rep {
		t.Fatal("first Put reported replace")
	}
	rep, err := tb.Put(7, 200)
	if err != nil || !rep {
		t.Fatalf("update = (%v,%v)", rep, err)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len after update = %d", tb.Len())
	}
	if ppa, _ := tb.Get(7); ppa != 200 {
		t.Fatalf("Get after update = %d", ppa)
	}
}

func TestGetMissing(t *testing.T) {
	tb := New(8, 4)
	if _, ok := tb.Get(99); ok {
		t.Fatal("Get on empty table returned ok")
	}
	if _, ok := tb.Delete(99); ok {
		t.Fatal("Delete on empty table returned ok")
	}
}

func TestFillToCapacitySmallTable(t *testing.T) {
	// With hop range == capacity, every slot is reachable, so the table
	// must accept exactly Cap records.
	tb := New(32, 32)
	inserted := 0
	for sig := uint64(1); inserted < 32; sig++ {
		if _, err := tb.Put(sig, sig); err != nil {
			t.Fatalf("Put(%d) failed at %d/32: %v", sig, inserted, err)
		}
		inserted++
	}
	if tb.Occupancy() != 1.0 {
		t.Fatalf("Occupancy = %v", tb.Occupancy())
	}
	if _, err := tb.Put(1<<40, 1); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("Put on full table = %v, want ErrNoSlot", err)
	}
}

func TestDisplacementPreservesRecords(t *testing.T) {
	// Dense fill of a paper-sized table (R=1927, H=32): hopscotch must
	// displace aggressively yet every inserted record stays retrievable.
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(7))
	stored := make(map[uint64]uint64)
	for len(stored) < 1600 { // ~83% occupancy
		sig := rng.Uint64()
		ppa := uint64(rng.Int63n(1 << 39))
		if _, err := tb.Put(sig, ppa); err != nil {
			continue // collision aborts allowed; don't record
		}
		stored[sig] = ppa
	}
	for sig, want := range stored {
		got, ok := tb.Get(sig)
		if !ok || got != want {
			t.Fatalf("Get(%#x) = (%d,%v), want (%d,true)", sig, got, ok, want)
		}
	}
}

func TestOracleProperty(t *testing.T) {
	// Random op sequence against a map oracle.
	type op struct {
		Kind byte
		Sig  uint16 // narrow keyspace to force collisions/updates
		PPA  uint32
	}
	f := func(ops []op) bool {
		tb := New(97, 16) // prime capacity exercises wraparound
		oracle := make(map[uint64]uint64)
		for _, o := range ops {
			sig := uint64(o.Sig)
			switch o.Kind % 3 {
			case 0:
				ppa := uint64(o.PPA) % (1 << 40)
				if _, err := tb.Put(sig, ppa); err == nil {
					oracle[sig] = ppa
				} else if _, exists := oracle[sig]; exists {
					return false // update of existing key must not fail
				}
			case 1:
				got, ok := tb.Get(sig)
				want, exists := oracle[sig]
				if ok != exists || (ok && got != want) {
					return false
				}
			case 2:
				got, ok := tb.Delete(sig)
				want, exists := oracle[sig]
				if ok != exists || (ok && got != want) {
					return false
				}
				delete(oracle, sig)
			}
		}
		if tb.Len() != len(oracle) {
			return false
		}
		for sig, want := range oracle {
			if got, ok := tb.Get(sig); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tb := New(128, 32)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		tb.Put(rng.Uint64(), uint64(rng.Int63n(1<<39)))
	}
	buf := make([]byte, EncodedSize(tb.Cap()))
	tb.EncodeTo(buf)

	tb2 := New(128, 32)
	if err := tb2.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	if tb2.Len() != tb.Len() {
		t.Fatalf("decoded Len = %d, want %d", tb2.Len(), tb.Len())
	}
	tb.Range(func(sig, ppa uint64) bool {
		got, ok := tb2.Get(sig)
		if !ok || got != ppa {
			t.Fatalf("decoded Get(%#x) = (%d,%v), want (%d,true)", sig, got, ok, ppa)
		}
		return true
	})
	// Decoded table must still accept inserts and deletes correctly.
	tb.Range(func(sig, ppa uint64) bool {
		if _, ok := tb2.Delete(sig); !ok {
			t.Fatalf("decoded Delete(%#x) failed", sig)
		}
		return true
	})
	if tb2.Len() != 0 {
		t.Fatalf("decoded table not empty after deletes: %d", tb2.Len())
	}
}

func TestEncodeDecodePropertyRoundTrip(t *testing.T) {
	f := func(sigs []uint64) bool {
		tb := New(61, 16)
		oracle := make(map[uint64]uint64)
		for i, s := range sigs {
			if _, err := tb.Put(s, uint64(i)); err == nil {
				oracle[s] = uint64(i)
			}
		}
		buf := make([]byte, EncodedSize(61))
		tb.EncodeTo(buf)
		tb2 := New(61, 16)
		if err := tb2.DecodeFrom(buf); err != nil {
			return false
		}
		if tb2.Len() != len(oracle) {
			return false
		}
		for s, want := range oracle {
			if got, ok := tb2.Get(s); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	tb := New(16, 8)
	if err := tb.DecodeFrom(make([]byte, 10)); err == nil {
		t.Fatal("DecodeFrom accepted short buffer")
	}
}

func TestEncodeShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeTo did not panic on short buffer")
		}
	}()
	New(16, 8).EncodeTo(make([]byte, 10))
}

func TestZeroSignatureIsStorable(t *testing.T) {
	// Signature 0 is a legal hash output; emptiness is encoded via the PPA
	// sentinel, not the signature.
	tb := New(16, 8)
	if _, err := tb.Put(0, 5); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, EncodedSize(16))
	tb.EncodeTo(buf)
	tb2 := New(16, 8)
	tb2.DecodeFrom(buf)
	if ppa, ok := tb2.Get(0); !ok || ppa != 5 {
		t.Fatalf("sig 0 lost in round trip: (%d,%v)", ppa, ok)
	}
}

func TestHopRangeClamping(t *testing.T) {
	if h := New(8, 100).HopRange(); h != 8 {
		t.Fatalf("hop clamped to %d, want 8 (capacity)", h)
	}
	if h := New(100, 100).HopRange(); h != MaxHopRange {
		t.Fatalf("hop clamped to %d, want %d", h, MaxHopRange)
	}
	if h := New(8, 0).HopRange(); h != 1 {
		t.Fatalf("hop clamped to %d, want 1", h)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tb := New(32, 8)
	for i := uint64(1); i <= 10; i++ {
		tb.Put(i, i)
	}
	seen := 0
	tb.Range(func(sig, ppa uint64) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("Range visited %d, want 3", seen)
	}
}

func TestReset(t *testing.T) {
	tb := New(32, 8)
	for i := uint64(1); i <= 10; i++ {
		tb.Put(i, i)
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tb.Len())
	}
	if _, ok := tb.Get(5); ok {
		t.Fatal("Get found record after Reset")
	}
	if _, err := tb.Put(5, 5); err != nil {
		t.Fatalf("Put after Reset: %v", err)
	}
}

func TestCollisionAbortRateReasonable(t *testing.T) {
	// At 80% occupancy (the paper's default resize threshold) with H=32,
	// aborts should be rare (<1% of inserts), matching Fig. 8b's finding
	// that collision handling only degrades above 80%.
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(11))
	target := 1927 * 80 / 100
	aborts, tries := 0, 0
	for tb.Len() < target {
		tries++
		if _, err := tb.Put(rng.Uint64(), 1); err != nil {
			aborts++
		}
	}
	rate := float64(aborts) / float64(tries)
	if rate > 0.01 {
		t.Fatalf("abort rate %.4f at 80%% occupancy, want < 1%%", rate)
	}
}

func BenchmarkPut(b *testing.B) {
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tb.Len() > 1500 {
			tb.Reset()
		}
		tb.Put(rng.Uint64(), uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(1))
	sigs := make([]uint64, 1500)
	for i := range sigs {
		sigs[i] = rng.Uint64()
		tb.Put(sigs[i], uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Get(sigs[i%len(sigs)])
	}
}

func BenchmarkEncode(b *testing.B) {
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		tb.Put(rng.Uint64(), uint64(i))
	}
	buf := make([]byte, EncodedSize(1927))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.EncodeTo(buf)
	}
}

func BenchmarkTablePageIn(b *testing.B) {
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		tb.Put(rng.Uint64(), uint64(i))
	}
	buf := make([]byte, EncodedSize(1927))
	tb.EncodeTo(buf)
	dst := New(1927, 32)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.DecodeFrom(buf); err != nil {
			b.Fatal(err)
		}
	}
}
