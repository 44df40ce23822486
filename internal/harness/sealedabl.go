package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	laoram "repro"
	"repro/internal/trace"
)

// sealedabl.go measures the sealed hot path's crypto fan-out: with the
// access cycle allocation-free (PR 3) and planning overlapped (PR 4),
// ~80% of a sealed access is AES-CTR+HMAC, previously executed serially
// bucket by bucket on one goroutine per shard. LAORAM's batched superblock
// fetches (§IV-A) and multipath write-backs hand the store large
// independent bucket unions, so the experiment sweeps
// Options.CryptoWorkers ∈ {1, 2, 4, 8} over identical batched training
// sessions and reports the sealed-batch throughput curve. Workers=1 is
// today's serial path; every configuration produces byte-identical results
// (deterministic per-slot counter reservation — see DESIGN.md invariant
// 10), so the only thing that varies is wall-clock.

// sealedWorkerSweep is the measured fan-out widths.
var sealedWorkerSweep = []int{1, 2, 4, 8}

// SealedRow is one crypto fan-out width of the sealed sweep.
type SealedRow struct {
	// Workers is Options.CryptoWorkers for this configuration.
	Workers int
	// Accesses is the logical accesses of the measured session.
	Accesses int
	// Wall is the host wall-clock of the batched session (best of two).
	Wall time.Duration
	// Throughput is Accesses per wall-clock second.
	Throughput float64
	// Speedup is Throughput over the Workers=1 row.
	Speedup float64
}

// SealedResult is the sealed experiment outcome.
type SealedResult struct {
	Entries   uint64
	BlockSize int
	S         int
	BatchBins int
	// CPUs is runtime.NumCPU() — the curve saturates there; on a
	// single-core host every row measures ≈ 1x.
	CPUs int
	Rows []SealedRow
}

// sealedExpKey pins the sealing key so every configuration seals under the
// same key (the IV prefix still differs per instance; determinism claims
// are about plaintext state and access behaviour, pinned by
// TestCryptoWorkersEquivalence).
func sealedExpKey() []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*5 + 1)
	}
	return key
}

// runSealed measures one fan-out width: an encrypted single-shard
// instance trained over the stream as one look-ahead window (pre-placed
// load), executed in batched server round trips (the §IV-A
// per-training-batch fetch) under a read-modify-write visitor. The
// returned wall time is the training stage's, excluding the load.
func runSealed(sc Scale, seed int64, stream []uint64, workers, s, batchBins int) (time.Duration, laoram.SessionStats, error) {
	db, err := laoram.New(laoram.Options{
		Entries:       sc.EntriesSmall,
		BlockSize:     128,
		Encrypt:       true,
		Key:           sealedExpKey(),
		FatTree:       true,
		Seed:          seed,
		CryptoWorkers: workers,
	})
	if err != nil {
		return 0, laoram.SessionStats{}, err
	}
	defer db.Close()
	st, err := db.Train(context.Background(), laoram.TrainOptions{
		Source:     laoram.FromSlice(stream),
		Superblock: s,
		BatchBins:  batchBins,
		PrePlace:   true,
		Payload: func(id uint64) []byte {
			row := make([]byte, 128)
			row[0] = byte(id)
			return row
		},
		Visit: func(id uint64, row []byte) []byte {
			row[0]++ // minimal training update; the whole fetched path reseals on write-back
			return row
		},
	})
	if err != nil {
		return 0, laoram.SessionStats{}, err
	}
	return st.TrainTime, st.Session, nil
}

// SealedExp sweeps the crypto fan-out width over identical sealed batched
// sessions. Wall-clock on a shared host is noisy, so each width takes the
// best of two runs (the same noise-floor estimator the pipeline and serve
// experiments use); a cross-width session-counter mismatch is an error —
// the configurations are byte-identical by construction.
func SealedExp(sc Scale, seed int64) (*SealedResult, error) {
	const s = 8
	const batchBins = 16
	stream, err := workloadStream(trace.KindGaussian, sc.EntriesSmall, 2*sc.Accesses, seed+57)
	if err != nil {
		return nil, err
	}
	res := &SealedResult{
		Entries:   sc.EntriesSmall,
		BlockSize: 128,
		S:         s,
		BatchBins: batchBins,
		CPUs:      runtime.NumCPU(),
	}
	var baseStats laoram.SessionStats
	var base float64
	for _, w := range sealedWorkerSweep {
		var wall time.Duration
		var stats laoram.SessionStats
		for i := 0; i < 2; i++ {
			wl, st, err := runSealed(sc, seed, stream, w, s, batchBins)
			if err != nil {
				return nil, fmt.Errorf("sealed workers=%d: %w", w, err)
			}
			if i == 0 || wl < wall {
				wall = wl
			}
			stats = st
		}
		if w == sealedWorkerSweep[0] {
			baseStats = stats
		} else if stats != baseStats {
			return nil, fmt.Errorf("sealed workers=%d diverged from serial run: %+v vs %+v", w, stats, baseStats)
		}
		row := SealedRow{Workers: w, Accesses: len(stream), Wall: wall}
		if wall > 0 {
			row.Throughput = float64(len(stream)) / wall.Seconds()
		}
		if w == sealedWorkerSweep[0] {
			base = row.Throughput
		}
		if base > 0 {
			row.Speedup = row.Throughput / base
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Row returns the row for the given worker count, or nil.
func (r *SealedResult) Row(workers int) *SealedRow {
	for i := range r.Rows {
		if r.Rows[i].Workers == workers {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render formats the sealed sweep.
func (r *SealedResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Sealed — crypto fan-out over batched sealed sessions (N=%d, %d B blocks, S=%d, batch=%d bins, host cpus=%d)",
			r.Entries, r.BlockSize, r.S, r.BatchBins, r.CPUs),
		Headers: []string{"crypto workers", "accesses", "wall", "acc/s", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%d", row.Accesses),
			row.Wall.Round(time.Millisecond).String(),
			f2(row.Throughput),
			f2(row.Speedup)+"x")
	}
	t.AddNote("workers=1 is the serial baseline; all widths are byte-identical (per-slot CTR counter reservation)")
	t.AddNote("the curve saturates at the host's cores — on CI (≥4 cpus) the bar is ≥2x at 4 workers")
	return t.Render()
}

// CSV exports the sweep.
func (r *SealedResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("workers,accesses,wall_ns,throughput,speedup\n")
	for _, row := range r.Rows {
		sb.WriteString(fmt.Sprintf("%d,%d,%d,%.2f,%.3f\n",
			row.Workers, row.Accesses, row.Wall.Nanoseconds(), row.Throughput, row.Speedup))
	}
	return sb.String()
}
