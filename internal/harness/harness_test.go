package harness

import (
	"strings"
	"testing"

	"repro/internal/oram"
	"repro/internal/trace"
)

// TestFig7ShapePermutation verifies the comparative structure of Fig. 7a at
// CI scale: every LAORAM variant beats PathORAM; at large superblocks the
// fat tree beats the normal tree; Normal/S8 suffers vs Normal/S4 under the
// permutation workload's stash pressure (the paper's S8 dip).
func TestFig7ShapePermutation(t *testing.T) {
	res, err := Fig7a(CIScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	by := map[string]SpeedupRow{}
	for _, r := range res.Rows {
		by[r.Variant] = r
	}
	if by["PathORAM"].Speedup != 1.0 {
		t.Errorf("baseline speedup = %v", by["PathORAM"].Speedup)
	}
	for _, v := range []string{"Normal/S2", "Normal/S4", "Fat/S2", "Fat/S4", "Fat/S8"} {
		if by[v].Speedup <= 1.0 {
			t.Errorf("%s speedup %.2f <= 1", v, by[v].Speedup)
		}
	}
	// Fat vs normal at S=8 (the fat tree's raison d'être).
	if by["Fat/S8"].Speedup <= by["Normal/S8"].Speedup {
		t.Errorf("Fat/S8 (%.2f) should beat Normal/S8 (%.2f)",
			by["Fat/S8"].Speedup, by["Normal/S8"].Speedup)
	}
	// Dummy reads ordering mirrors Table II.
	if by["Fat/S8"].DummyPerAccess >= by["Normal/S8"].DummyPerAccess {
		t.Errorf("Fat/S8 dummies (%.3f) should be below Normal/S8 (%.3f)",
			by["Fat/S8"].DummyPerAccess, by["Normal/S8"].DummyPerAccess)
	}
	if out := res.Render(); !strings.Contains(out, "Fig. 7a") {
		t.Error("render missing title")
	}
}

// TestFig7KaggleBeatsPermutation: the paper's headline — real embedding
// workloads (repeats reduce stash pressure) see larger speedups than the
// worst-case permutation; the best Kaggle config lands in the multi-x
// range (paper: ~5x at full scale).
func TestFig7KaggleBeatsPermutation(t *testing.T) {
	sc := CIScale()
	perm, err := Fig7a(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	kaggle, err := Fig7e(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	best := func(r *Fig7Result) float64 {
		b := 0.0
		for _, row := range r.Rows {
			if row.Speedup > b {
				b = row.Speedup
			}
		}
		return b
	}
	bp, bk := best(perm), best(kaggle)
	t.Logf("best speedup: permutation=%.2fx kaggle=%.2fx", bp, bk)
	if bk <= bp {
		t.Errorf("kaggle best (%.2f) should exceed permutation best (%.2f)", bk, bp)
	}
	if bk < 2.5 {
		t.Errorf("kaggle best speedup %.2f implausibly low (paper: ~5x)", bk)
	}
}

func TestFig7XNLIShape(t *testing.T) {
	res, err := Fig7f(CIScale(), 3)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]SpeedupRow{}
	for _, r := range res.Rows {
		by[r.Variant] = r
	}
	// XNLI (Zipf) is the paper's best case (5.4x at full scale); at CI
	// scale demand the best config clears 2.5x and beats PathORAM across
	// fat configs.
	best := 0.0
	for _, r := range res.Rows {
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	if best < 2.5 {
		t.Errorf("XNLI best speedup %.2f too low", best)
	}
}

// TestFig8Shape verifies the stash-growth ordering of Fig. 8 and monotone
// growth without eviction.
func TestFig8Shape(t *testing.T) {
	res, err := Fig8(CIScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	final := map[string]int{}
	for _, s := range res.Series {
		if len(s.Stash) == 0 {
			t.Fatalf("series %s empty", s.Config)
		}
		final[s.Config] = s.Stash[len(s.Stash)-1]
		// Growth should be roughly monotone (tolerate small dips from
		// lucky write-backs).
		if s.Stash[len(s.Stash)-1] < s.Stash[0] {
			t.Errorf("%s stash shrank overall: %v → %v", s.Config, s.Stash[0], s.Stash[len(s.Stash)-1])
		}
	}
	t.Logf("final stash: %v", final)
	if final["Fat-4"] >= final["Normal-4"] {
		t.Errorf("Fat-4 (%d) should end below Normal-4 (%d)", final["Fat-4"], final["Normal-4"])
	}
	if final["Fat-8"] >= final["Normal-8"] {
		t.Errorf("Fat-8 (%d) should end below Normal-8 (%d)", final["Fat-8"], final["Normal-8"])
	}
	if !strings.Contains(res.Render(), "Fig. 8") {
		t.Error("render missing title")
	}
}

// TestFig9Shape verifies the traffic-reduction structure: Normal/S2 meets
// its 2x bound; larger superblocks stay below their bounds; measured
// reductions are monotone in S for the normal tree.
func TestFig9Shape(t *testing.T) {
	res, err := Fig9(CIScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]Fig9Row{}
	for _, r := range res.Rows {
		by[r.Variant] = r
	}
	if by["PathORAM"].Reduction != 1.0 {
		t.Errorf("baseline reduction = %v", by["PathORAM"].Reduction)
	}
	s2 := by["Normal/S2"]
	if s2.Reduction < 1.7 || s2.Reduction > 2.05 {
		t.Errorf("Normal/S2 reduction %.2f, paper reports ~2.0 (bound 2)", s2.Reduction)
	}
	for _, v := range []string{"Normal/S2", "Normal/S4", "Normal/S8"} {
		row := by[v]
		if row.Reduction > row.Bound*1.02 {
			t.Errorf("%s measured %.2f exceeds theoretical bound %.2f", v, row.Reduction, row.Bound)
		}
	}
	if by["Normal/S4"].Reduction <= by["Normal/S2"].Reduction {
		t.Errorf("reduction not monotone: S4 %.2f <= S2 %.2f",
			by["Normal/S4"].Reduction, by["Normal/S2"].Reduction)
	}
	t.Logf("reductions: S2=%.2f S4=%.2f S8=%.2f fatS8=%.2f",
		by["Normal/S2"].Reduction, by["Normal/S4"].Reduction,
		by["Normal/S8"].Reduction, by["Fat/S8"].Reduction)
}

// TestTable1FullScale checks the geometry arithmetic against the paper's
// reported sizes where consistent.
func TestTable1FullScale(t *testing.T) {
	res, err := Table1(CIScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r8 := res.Rows[0]
	if r8.Insecure != int64(8<<20)*128 {
		t.Errorf("8M insecure = %d", r8.Insecure)
	}
	gbv := func(b int64) float64 { return float64(b) / (1 << 30) }
	if g := gbv(r8.PathORAM); g < 7 || g > 9 {
		t.Errorf("8M PathORAM = %.2f GB, paper says 8 GB", g)
	}
	if r8.LAORAM != r8.PathORAM {
		t.Error("LAORAM server bytes should equal PathORAM (same tree)")
	}
	if r8.Fat <= r8.PathORAM {
		t.Error("fat tree must cost more server memory")
	}
	r16 := res.Rows[1]
	if g := gbv(r16.PathORAM); g < 15 || g > 18 {
		t.Errorf("16M PathORAM = %.2f GB, paper says 16 GB", g)
	}
	if !strings.Contains(res.Render(), "Table I") {
		t.Error("render missing title")
	}
}

// TestTable2Shape verifies the ordering structure of Table II: fat < normal
// at both sizes on every workload; real workloads (Kaggle/XNLI) are far
// below the synthetic worst case.
func TestTable2Shape(t *testing.T) {
	res, err := Table2(CIScale(), 6)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Values
	for _, w := range res.Workloads {
		if v["Fat/S8"][w] > v["Normal/S8"][w] {
			t.Errorf("%s: Fat/S8 (%.3f) > Normal/S8 (%.3f)", w, v["Fat/S8"][w], v["Normal/S8"][w])
		}
		if v["Fat/S4"][w] > v["Normal/S4"][w] {
			t.Errorf("%s: Fat/S4 (%.3f) > Normal/S4 (%.3f)", w, v["Fat/S4"][w], v["Normal/S4"][w])
		}
	}
	// Permutation is the worst case (§VII-B).
	if v["Normal/S8"]["Permutation"] <= v["Normal/S8"]["Kaggle"] {
		t.Errorf("permutation (%.3f) should exceed kaggle (%.3f) at Normal/S8",
			v["Normal/S8"]["Permutation"], v["Normal/S8"]["Kaggle"])
	}
	// Real workloads with Fat/S4: the paper reports 0 — demand near-zero.
	if v["Fat/S4"]["Kaggle"] > 0.05 {
		t.Errorf("Fat/S4 Kaggle dummies %.3f, paper reports 0", v["Fat/S4"]["Kaggle"])
	}
	if v["Fat/S4"]["XNLI"] > 0.05 {
		t.Errorf("Fat/S4 XNLI dummies %.3f, paper reports 0", v["Fat/S4"]["XNLI"])
	}
	t.Logf("table2: %v", v)
}

// TestMemNeutralShape verifies §VIII-C: the 9→5 fat tree uses less memory
// AND fewer dummy reads than uniform Z=6.
func TestMemNeutralShape(t *testing.T) {
	res, err := MemNeutral(CIScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemorySaving <= 0 {
		t.Errorf("fat tree should save memory: %.3f", res.MemorySaving)
	}
	if res.MemorySaving < 0.10 || res.MemorySaving > 0.25 {
		t.Errorf("memory saving %.1f%%, paper reports 16.6%%", res.MemorySaving*100)
	}
	if res.FatDummies > res.WideDummy {
		t.Errorf("fat dummies %d > wide %d despite less memory", res.FatDummies, res.WideDummy)
	}
	t.Logf("mem saving %.1f%%, dummy reduction %.1f%% (paper: 16.6%% / 12.4%%)",
		res.MemorySaving*100, res.DummyReduction*100)
}

func TestPreprocShape(t *testing.T) {
	res, err := Preproc(CIScale(), 8)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Accesses == 0 || s.Windows == 0 {
		t.Fatalf("empty run: %+v", s)
	}
	if res.PreprocessPerAccess*2 >= res.TrainPerAccess {
		t.Errorf("preprocessing (%v/access) should be well below ORAM cost (%v/access)",
			res.PreprocessPerAccess, res.TrainPerAccess)
	}
	if !strings.Contains(res.Render(), "VIII-A") {
		t.Error("render missing title")
	}
}

func TestRingExpShape(t *testing.T) {
	res, err := RingExp(CIScale(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[1].Reduction < 1.8 {
		t.Errorf("LAORAM-on-Ring reduction %.2f, want >= 1.8 at S=4", res.Rows[1].Reduction)
	}
	if !strings.Contains(res.Render(), "VIII-G") {
		t.Error("render missing title")
	}
}

func TestSecurityChecksPass(t *testing.T) {
	res, err := Security(CIScale(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathORAMLeafP < 0.001 {
		t.Errorf("PathORAM leaves non-uniform: p=%g", res.PathORAMLeafP)
	}
	if res.LAORAMLeafP < 0.001 {
		t.Errorf("LAORAM leaves non-uniform: p=%g", res.LAORAMLeafP)
	}
	if res.TwoSampleP < 0.001 {
		t.Errorf("streams distinguishable: p=%g", res.TwoSampleP)
	}
	if res.BinPathP < 0.001 {
		t.Errorf("bin paths non-uniform: p=%g", res.BinPathP)
	}
	if !strings.Contains(res.Render(), "uniform") {
		t.Error("render missing verdicts")
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(CIScale(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stream) == 0 {
		t.Fatal("empty stream")
	}
	if res.Repeat < 0.05 {
		t.Errorf("repeat fraction %.3f too low for the Fig. 2 band", res.Repeat)
	}
	if !strings.Contains(res.Render(), "Fig. 2") {
		t.Error("render missing title")
	}
}

// TestWindowSweepShape: reads/access grows as the look-ahead window
// shrinks.
func TestWindowSweepShape(t *testing.T) {
	res, err := WindowSweep(CIScale(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first := res.Rows[0]
	last := res.Rows[len(res.Rows)-1]
	if last.ReadsPerAccess <= first.ReadsPerAccess {
		t.Errorf("shrinking window should raise reads/access: %.3f → %.3f",
			first.ReadsPerAccess, last.ReadsPerAccess)
	}
	t.Logf("window sweep: full=%.3f smallest=%.3f reads/access", first.ReadsPerAccess, last.ReadsPerAccess)
}

// TestProfileSweepShape: any widened profile beats uniform on dummy reads;
// linear costs less memory than capped-exponential.
func TestProfileSweepShape(t *testing.T) {
	res, err := ProfileSweep(CIScale(), 13)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]ProfileRow{}
	for _, r := range res.Rows {
		by[r.Profile] = r
	}
	if by["linear 8→4"].DummyReads >= by["uniform Z=4"].DummyReads {
		t.Errorf("linear (%d) should beat uniform (%d)",
			by["linear 8→4"].DummyReads, by["uniform Z=4"].DummyReads)
	}
	if by["linear 8→4"].ServerBytes >= by["exp cap16"].ServerBytes {
		t.Errorf("linear memory (%d) should be below exp (%d)",
			by["linear 8→4"].ServerBytes, by["exp cap16"].ServerBytes)
	}
}

func TestThreshSweepShape(t *testing.T) {
	res, err := ThreshSweep(CIScale(), 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Higher watermark → bigger stash peak.
	if res.Rows[2].StashPeak <= res.Rows[0].StashPeak {
		t.Errorf("peak not increasing with watermark: %d vs %d",
			res.Rows[0].StashPeak, res.Rows[2].StashPeak)
	}
}

func TestZSweepShape(t *testing.T) {
	res, err := ZSweep(CIScale(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// At equal Z, fat must not have more dummy reads.
	for i := 0; i+1 < len(res.Rows); i += 2 {
		n, f := res.Rows[i], res.Rows[i+1]
		if f.DummyPerAccess > n.DummyPerAccess+1e-9 {
			t.Errorf("Z=%d: fat dummies %.3f > normal %.3f", n.Z, f.DummyPerAccess, n.DummyPerAccess)
		}
	}
}

func TestModelSweepRobust(t *testing.T) {
	res, err := ModelSweep(CIScale(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Speedup) != 3 {
		t.Fatalf("models = %d", len(res.Speedup))
	}
	for i, s := range res.Speedup {
		if s <= 1.0 {
			t.Errorf("model %s: speedup %.2f <= 1", res.Models[i], s)
		}
	}
	// Ratios stay within one regime band across models. Some spread is
	// genuine physics: a latency-dominated model weighs dummy reads
	// (2 requests, few useful bytes) differently from a bandwidth-
	// dominated one. What must not happen is the conclusion flipping.
	min, max := res.Speedup[0], res.Speedup[0]
	for _, s := range res.Speedup {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max/min > 1.75 {
		t.Errorf("speedup unstable across models: %.2f–%.2f", min, max)
	}
	t.Logf("Fat/S4 speedups across models: %.2f–%.2f", min, max)
}

// TestRunSpecPathORAMvsLAORAMSameTraffic sanity-checks Run itself: PathORAM
// traffic per access ≈ 2 paths; LAORAM steady state ≈ 2 paths per bin.
func TestRunSpecAccounting(t *testing.T) {
	sc := CIScale()
	stream, err := workloadStream(trace.KindPermutation, sc.EntriesSmall, 2000, 17)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(RunSpec{
		Entries: sc.EntriesSmall, BlockSize: 128,
		Variant: Variant{Name: "PathORAM", S: 1},
		Stream:  stream, Evict: oram.PaperEvict, Seed: 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Stats.Accesses != 2000 {
		t.Errorf("accesses = %d", rr.Stats.Accesses)
	}
	if rr.Stats.PathReads+rr.Stats.StashHits != rr.Stats.Accesses {
		t.Errorf("reads+hits != accesses: %+v", rr.Stats)
	}
	if rr.SimTime <= 0 || rr.BytesMoved() == 0 {
		t.Errorf("missing accounting: %+v", rr)
	}
	if rr.PosBytes <= 0 {
		t.Error("position map bytes missing")
	}
}
