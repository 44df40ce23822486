package laoram_test

// bench_test.go regenerates every table and figure of the paper's
// evaluation as testing.B benchmarks (DESIGN.md's experiment index):
//
//	go test -bench=. -benchmem                    # everything, CI scale
//	go test -bench=BenchmarkFig7eDLRMKaggle -v    # one artifact
//
// Each figure/table benchmark runs the corresponding harness experiment
// once per iteration and reports the headline quantity as a custom metric
// (speedup, dummy reads/access, traffic reduction, ...), so `go test
// -bench` output doubles as the reproduction record. Engine micro-
// benchmarks at the bottom measure real wall-clock per-access costs.

import (
	"fmt"
	"strings"
	"testing"

	laoram "repro"
	"repro/internal/harness"
	"repro/internal/oram"
	"repro/internal/trace"
)

const benchSeed = 42

func benchScale() harness.Scale { return harness.CIScale() }

// reportFig7 publishes each variant's speedup as a metric.
func reportFig7(b *testing.B, res *harness.Fig7Result) {
	b.Helper()
	for _, row := range res.Rows {
		if row.Variant == "PathORAM" {
			continue
		}
		b.ReportMetric(row.Speedup, "x-speedup:"+row.Variant)
	}
}

// BenchmarkFig2KaggleTrace regenerates Fig. 2's access scatter (the
// Kaggle-like workload characterisation).
func BenchmarkFig2KaggleTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig2(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Repeat, "repeat-fraction")
		}
	}
}

// BenchmarkFig7aPermutation8M regenerates Fig. 7a (speedups, permutation,
// 8M-class table).
func BenchmarkFig7aPermutation8M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig7a(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFig7(b, res)
		}
	}
}

// BenchmarkFig7bPermutation16M regenerates Fig. 7b.
func BenchmarkFig7bPermutation16M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig7b(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFig7(b, res)
		}
	}
}

// BenchmarkFig7cGaussian8M regenerates Fig. 7c.
func BenchmarkFig7cGaussian8M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig7c(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFig7(b, res)
		}
	}
}

// BenchmarkFig7dGaussian16M regenerates Fig. 7d.
func BenchmarkFig7dGaussian16M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig7d(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFig7(b, res)
		}
	}
}

// BenchmarkFig7eDLRMKaggle regenerates Fig. 7e (the paper's headline ~5x).
func BenchmarkFig7eDLRMKaggle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig7e(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFig7(b, res)
		}
	}
}

// BenchmarkFig7fXLMRXNLI regenerates Fig. 7f (the paper's 5.4x).
func BenchmarkFig7fXLMRXNLI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig7f(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFig7(b, res)
		}
	}
}

// BenchmarkFig8StashGrowth regenerates Fig. 8 (stash growth, eviction off)
// and reports the final stash size per configuration.
func BenchmarkFig8StashGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig8(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range res.Series {
				if n := len(s.Stash); n > 0 {
					b.ReportMetric(float64(s.Stash[n-1]), "stash:"+s.Config)
				}
			}
		}
	}
}

// BenchmarkFig9TrafficReduction regenerates Fig. 9 (traffic reduction vs
// PathORAM on the Kaggle-like workload).
func BenchmarkFig9TrafficReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig9(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Variant != "PathORAM" {
					b.ReportMetric(row.Reduction, "x-traffic:"+row.Variant)
				}
			}
		}
	}
}

// BenchmarkTable1Memory regenerates Table I (server-storage requirement;
// pure geometry arithmetic at the paper's full sizes).
func BenchmarkTable1Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table1(benchScale(), false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(float64(row.PathORAM)/(1<<30), "GB-pathoram:"+row.Name)
				b.ReportMetric(float64(row.Fat)/(1<<30), "GB-fat:"+row.Name)
			}
		}
	}
}

// BenchmarkTable2DummyReads regenerates Table II (dummy reads per access).
func BenchmarkTable2DummyReads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table2(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, cfg := range res.Configs {
				for _, w := range res.Workloads {
					b.ReportMetric(res.Values[cfg][w], "dummies:"+cfg+":"+w)
				}
			}
		}
	}
}

// BenchmarkMemNeutralFatVsWide regenerates the §VIII-C memory-neutral
// comparison (paper: fat saves 16.6% memory and 12.4% dummy reads).
func BenchmarkMemNeutralFatVsWide(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.MemNeutral(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MemorySaving*100, "%-memory-saved")
			b.ReportMetric(res.DummyReduction*100, "%-dummies-saved")
		}
	}
}

// BenchmarkPreprocessingThroughput regenerates §VIII-A (preprocessing off
// the critical path).
func BenchmarkPreprocessingThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Preproc(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && res.PreprocessPerAccess > 0 {
			b.ReportMetric(float64(res.PreprocessPerAccess.Nanoseconds()), "ns-preproc/access")
			b.ReportMetric(float64(res.TrainPerAccess.Nanoseconds()), "ns-oram/access")
		}
	}
}

// BenchmarkRingORAMComparison regenerates §VIII-G (LAORAM on RingORAM).
func BenchmarkRingORAMComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RingExp(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) == 2 {
			b.ReportMetric(res.Rows[1].Reduction, "x-ring-reads-saved")
		}
	}
}

// BenchmarkSecurityUniformity regenerates the §VI empirical checks.
func BenchmarkSecurityUniformity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Security(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.LAORAMLeafP, "p-laoram-uniform")
			b.ReportMetric(res.TwoSampleP, "p-indistinguishable")
		}
	}
}

// --- Ablation benches (DESIGN.md abl-*) ---

// BenchmarkAblationWindow sweeps the look-ahead window.
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.WindowSweep(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.ReadsPerAccess, fmt.Sprintf("reads/acc@win%d", row.WindowAccesses))
			}
		}
	}
}

// BenchmarkAblationProfile sweeps fat-tree capacity profiles.
func BenchmarkAblationProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.ProfileSweep(benchScale(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThresholds sweeps eviction watermarks.
func BenchmarkAblationThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.ThreshSweep(benchScale(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBucketSize sweeps leaf bucket sizes.
func BenchmarkAblationBucketSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.ZSweep(benchScale(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBatchFetch sweeps the per-training-batch fetch size
// (§IV-A's batched path requests; shared buckets dedup).
func BenchmarkAblationBatchFetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.BatchSweep(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.Speedup, fmt.Sprintf("x-speedup@batch%d", row.BatchBins))
			}
		}
	}
}

// BenchmarkAblationShards sweeps the shard count (abl-shards) and reports
// each configuration's simulated batch-throughput speedup over one shard.
func BenchmarkAblationShards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.ShardSweep(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.Speedup, fmt.Sprintf("x-speedup@shards%d", row.Shards))
			}
		}
	}
}

// BenchmarkAblationTimingModel checks speedup robustness across memory
// models.
func BenchmarkAblationTimingModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.ModelSweep(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for j, m := range res.Models {
				// Metric units must be whitespace-free.
				b.ReportMetric(res.Speedup[j], "x-speedup:"+strings.ReplaceAll(m, " ", "-"))
			}
		}
	}
}

// --- Engine micro-benchmarks (real wall clock, payload store) ---

// BenchmarkPathORAMAccess measures one PathORAM access (read) on a 2^16
// table of 128 B rows.
func BenchmarkPathORAMAccess(b *testing.B) {
	const entries = 1 << 16
	db, err := laoram.New(laoram.Options{Entries: entries, BlockSize: 128, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(entries, nil); err != nil {
		b.Fatal(err)
	}
	db.ResetStats()
	rng := trace.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Read(uint64(rng.Int63n(entries))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(db.Stats().BytesMoved)/float64(b.N), "server-B/op")
}

// BenchmarkPathORAMAccessEncrypted adds AES-CTR sealing to every slot.
func BenchmarkPathORAMAccessEncrypted(b *testing.B) {
	const entries = 1 << 14
	db, err := laoram.New(laoram.Options{Entries: entries, BlockSize: 128, Encrypt: true, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(entries, nil); err != nil {
		b.Fatal(err)
	}
	rng := trace.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Read(uint64(rng.Int63n(entries))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLAORAMBin measures one superblock bin (4 logical accesses) in
// steady state.
func BenchmarkLAORAMBin(b *testing.B) {
	const entries = 1 << 16
	const S = 4
	db, err := laoram.New(laoram.Options{Entries: entries, BlockSize: 128, FatTree: true, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	// A long permutation stream so the plan outlasts b.N bins.
	stream, err := laoram.GenerateTrace(laoram.TraceConfig{
		Kind: laoram.TracePermutation, N: entries, Count: 4 * entries, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := db.Preprocess(stream, S)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.LoadForPlan(plan, nil); err != nil {
		b.Fatal(err)
	}
	session, err := db.NewSession(plan)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		more, err := session.Step(nil)
		if err != nil {
			b.Fatal(err)
		}
		if !more {
			b.StopTimer()
			// Rebuild a fresh session when the plan runs dry.
			db2, err := laoram.New(laoram.Options{Entries: entries, BlockSize: 128, FatTree: true, Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			plan2, err := db2.Preprocess(stream, S)
			if err != nil {
				b.Fatal(err)
			}
			if err := db2.LoadForPlan(plan2, nil); err != nil {
				b.Fatal(err)
			}
			db.Close()
			db = db2
			session, err = db2.NewSession(plan2)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(S, "accesses/op")
}

// BenchmarkShardedReadBatch measures a 64-access oblivious batch through
// the public API across shard counts (wall clock; per-shard worker
// goroutines, so multicore hosts see near-linear scaling on top of the
// shallower per-shard trees).
func BenchmarkShardedReadBatch(b *testing.B) {
	const entries = 1 << 16
	const batch = 64
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db, err := laoram.New(laoram.Options{Entries: entries, BlockSize: 128, Shards: shards, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := db.Load(entries, nil); err != nil {
				b.Fatal(err)
			}
			rng := trace.NewRNG(12)
			ids := make([]uint64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ids {
					ids[j] = uint64(rng.Int63n(entries))
				}
				if _, err := db.ReadBatch(ids); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(batch, "accesses/op")
		})
	}
}

// BenchmarkPreprocessorScan measures raw preprocessing throughput
// (accesses scanned per second) — the §VIII-A numerator.
func BenchmarkPreprocessorScan(b *testing.B) {
	const entries = 1 << 16
	db, err := laoram.New(laoram.Options{Entries: entries, MetadataOnly: true, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	stream, err := laoram.GenerateTrace(laoram.TraceConfig{
		Kind: laoram.TraceKaggle, N: entries, Count: 100000, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Preprocess(stream, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(stream)), "accesses/op")
}

// BenchmarkStoreBucketIO measures the raw server-storage bucket path
// (MetaStore read+write), the substrate under everything.
func BenchmarkStoreBucketIO(b *testing.B) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 20, LeafZ: 4, BlockSize: 128})
	st := oram.NewMetaStore(g)
	buf := make([]oram.Slot, 4)
	rng := trace.NewRNG(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lvl := int(rng.Int63n(int64(g.Levels())))
		node := uint64(rng.Int63n(1 << uint(lvl)))
		if err := st.ReadBucket(lvl, node, buf); err != nil {
			b.Fatal(err)
		}
		if err := st.WriteBucket(lvl, node, buf); err != nil {
			b.Fatal(err)
		}
	}
}
