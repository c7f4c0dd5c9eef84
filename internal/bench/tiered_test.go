package bench

import "testing"

// tieredShootoutConfig is the golden cell's DRAM budget re-split across
// the cache tiers: 8 KiB index pages + 8 KiB hot values instead of
// 16 KiB index-only, with admission on. Total DRAM is
// identical to goldenShootoutConfig, so any flash-read delta is the
// tiering's doing, not extra memory.
func tieredShootoutConfig() ShootoutConfig {
	cfg := goldenShootoutConfig()
	cfg.CacheBudget = 8 << 10
	cfg.ValueCacheBudget = 8 << 10
	cfg.CacheAdmission = true
	return cfg
}

// TestTieredFlashReadReduction pins the tentpole's perf claim: at the
// golden cell's 16 KiB total DRAM budget, splitting in a hot-value tier
// cuts flash-reads-per-GET by at least 25% on the read-heavy YCSB-B and
// YCSB-C columns versus the index-only baseline. Both runs are fully
// deterministic, so this is a regression pin, not a flaky perf test —
// the measured reductions at this cell are ~33% (B) and ~35% (C), so
// the 25% floor has real slack.
func TestTieredFlashReadReduction(t *testing.T) {
	base := goldenShootoutConfig()
	base.Workloads = []string{"ycsb-b", "ycsb-c"}
	tiered := tieredShootoutConfig()
	tiered.Workloads = base.Workloads

	bres, err := RunShootout(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := RunShootout(tiered, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range tres.Cells {
		bc := bres.Cells[i]
		if tc.Workload != bc.Workload {
			t.Fatalf("cell %d: workload mismatch %s vs %s", i, tc.Workload, bc.Workload)
		}
		if bc.FlashReadsPerGet <= 0 {
			t.Fatalf("%s: baseline frpg %.6f — cell no longer under cache pressure",
				bc.Workload, bc.FlashReadsPerGet)
		}
		if tc.FlashReadsPerGet > 0.75*bc.FlashReadsPerGet {
			t.Fatalf("%s: tiered frpg %.6f vs baseline %.6f — less than the pinned 25%% reduction",
				tc.Workload, tc.FlashReadsPerGet, bc.FlashReadsPerGet)
		}
		if tc.ValueCacheHitRate <= 0 {
			t.Fatalf("%s: value tier scored no hits", tc.Workload)
		}
	}
}

// TestTieredScanPrefetch pins the YCSB-E side of the tiered cell:
// prefix scans serve sibling records from staged pages (prefetch hits
// accrue) and return exactly the result set the per-record scan loop
// returned before staging became unconditional — same scan count, same
// scanned-entry total.
func TestTieredScanPrefetch(t *testing.T) {
	const wantScanOps, wantScannedEntries = 4751, 1215118
	cfg := tieredShootoutConfig()
	cfg.Workloads = []string{"ycsb-e"}
	res, err := RunShootout(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.PrefetchHits == 0 {
		t.Fatal("scan prefetch scored no hits on the scan-heavy workload")
	}
	if c.ScanOps != wantScanOps || c.ScannedEntries != wantScannedEntries {
		t.Fatalf("scan results changed: ops %d (want %d), entries %d (want %d)",
			c.ScanOps, wantScanOps, c.ScannedEntries, wantScannedEntries)
	}
}
