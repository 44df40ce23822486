package laoram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// trainer_test.go pins the streaming API v2 contracts (ISSUE 4):
//
//   - streaming-vs-oneshot equivalence: a Trainer with a full-stream
//     window reproduces the one-shot Preprocess → LoadForPlan →
//     NewSession → Run flow byte-identically (seed 42, Shards ∈ {1, 4});
//   - windowed streaming: incremental sources (slices, channels) train
//     the whole stream across window boundaries;
//   - context-aware cancellation: a mid-epoch cancel returns ctx.Err(),
//     shard workers and the planner goroutine drain (no leaks), and a
//     cancelled remote run closes the server connection.

func trainInit(blockSize int) func(id uint64) []byte {
	return func(id uint64) []byte {
		p := make([]byte, blockSize)
		for i := range p {
			p[i] = byte(id + 7*uint64(i))
		}
		return p
	}
}

// trainVisit is deterministic per id and safe under concurrent lanes.
func trainVisit(id uint64, payload []byte) []byte {
	out := make([]byte, len(payload))
	copy(out, payload)
	out[0] ^= byte(id)
	out[1]++
	return out
}

func uniqueSorted(stream []uint64) []uint64 {
	seen := map[uint64]bool{}
	for _, id := range stream {
		seen[id] = true
	}
	out := make([]uint64, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestTrainerMatchesOneShot is the streaming-equivalence pin: with the
// window spanning the full stream, Train must reproduce the one-shot flow
// byte-identically — same Stats counters, same session counters, same
// payload bytes — for both the unsharded and the 4-shard engine.
func TestTrainerMatchesOneShot(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 32
	const S = 4
	const seed = 42
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 4000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := Options{Entries: entries, BlockSize: blockSize, Seed: seed, Shards: shards}

			// One-shot reference flow.
			ref, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			plan, err := ref.Preprocess(stream, S)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.LoadForPlan(plan, trainInit(blockSize)); err != nil {
				t.Fatal(err)
			}
			ref.ResetStats() // Train's PrePlace resets after loading too
			sess, err := ref.NewSession(plan)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Run(trainVisit); err != nil {
				t.Fatal(err)
			}
			refSess := sess.Stats()
			refStats := ref.Stats()

			// Streaming flow, full-stream window.
			db, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			st, err := db.Train(context.Background(), TrainOptions{
				Source:     FromSlice(stream),
				Superblock: S,
				Window:     0, // one window = the whole stream
				PrePlace:   true,
				Payload:    trainInit(blockSize),
				Visit:      trainVisit,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Windows != 1 {
				t.Errorf("full-stream run used %d windows, want 1", st.Windows)
			}
			if st.Accesses != uint64(len(stream)) {
				t.Errorf("Accesses = %d, want %d", st.Accesses, len(stream))
			}
			if st.Session != refSess {
				t.Errorf("session stats diverge: streaming %+v, one-shot %+v", st.Session, refSess)
			}
			if got := db.Stats(); got != refStats {
				t.Errorf("engine stats diverge:\nstreaming %+v\none-shot  %+v", got, refStats)
			}
			for _, id := range uniqueSorted(stream) {
				want, err := ref.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				got, err := db.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("block %d: streaming payload diverges from one-shot", id)
				}
			}
		})
	}
}

// TestTrainerWindowedStreaming drives a multi-window run from a channel
// source with per-lane visitors and batched stepping over 4 shards: the
// incremental path none of the one-shot API could express.
func TestTrainerWindowedStreaming(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 16
	stream, err := GenerateTrace(TraceConfig{Kind: TraceGaussian, N: entries, Count: 6000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan uint64, 64)
	go func() {
		for _, id := range stream {
			ch <- id
		}
		close(ch)
	}()
	db, err := New(Options{Entries: entries, BlockSize: blockSize, Seed: 11, Shards: 4, FatTree: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var visited atomic.Uint64
	st, err := db.Train(context.Background(), TrainOptions{
		Source:     FromChannel(ch),
		Superblock: 4,
		Window:     1024,
		Depth:      3,
		BatchBins:  4,
		PrePlace:   true,
		Payload:    trainInit(blockSize),
		PerLane: func(lane int) Visit {
			// Lane-local scratch, shared atomic counter.
			scratch := make([]byte, blockSize)
			return func(id uint64, payload []byte) []byte {
				visited.Add(1)
				copy(scratch, payload)
				scratch[0] = byte(id)
				scratch[1] = 0xC3
				out := make([]byte, blockSize)
				copy(out, scratch)
				return out
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != uint64(len(stream)) {
		t.Errorf("Accesses = %d, want %d", st.Accesses, len(stream))
	}
	wantWindows := (len(stream) + 1023) / 1024
	if st.Windows != wantWindows {
		t.Errorf("Windows = %d, want %d", st.Windows, wantWindows)
	}
	if visited.Load() == 0 || st.Session.Bins == 0 {
		t.Errorf("degenerate run: visited %d, bins %d", visited.Load(), st.Session.Bins)
	}
	got, err := db.Read(stream[len(stream)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 0xC3 {
		t.Errorf("visit not applied to last-accessed block: % x", got[:2])
	}
}

// TestTrainerValidation pins the option errors.
func TestTrainerValidation(t *testing.T) {
	db, err := New(Options{Entries: 64, BlockSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	if _, err := db.Train(ctx, TrainOptions{}); err == nil {
		t.Error("nil Source accepted")
	}
	if _, err := db.Train(ctx, TrainOptions{Source: FromSlice([]uint64{1}), Visit: trainVisit,
		PerLane: func(int) Visit { return trainVisit }}); err == nil {
		t.Error("Visit+PerLane accepted")
	}
	if _, err := db.Train(ctx, TrainOptions{Source: FromSlice([]uint64{1}), Window: 2, Superblock: 4}); err == nil {
		t.Error("Window < Superblock accepted")
	}
	if _, err := db.Train(ctx, TrainOptions{Source: FromSlice([]uint64{1}), Payload: trainInit(16)}); err == nil {
		t.Error("Payload without PrePlace accepted")
	}
	// An empty stream is a successful no-op, matching the one-shot flow
	// (Preprocess of an empty stream yields an empty plan).
	if st, err := db.Train(ctx, TrainOptions{Source: FromSlice(nil)}); err != nil || st.Windows != 0 {
		t.Errorf("empty stream: got %+v, %v; want 0-window success", st, err)
	}
	if _, err := db.Train(ctx, TrainOptions{Source: FromSlice([]uint64{999})}); err == nil {
		t.Error("out-of-range id accepted")
	}
	// A Trainer is single-use: rerunning it would silently no-op on the
	// consumed source, so it must error instead.
	if err := db.Load(64, nil); err != nil {
		t.Fatal(err)
	}
	tr, err := db.NewTrainer(TrainOptions{Source: FromSlice([]uint64{1, 2, 3})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(ctx); err == nil {
		t.Error("second Train on the same Trainer accepted")
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base (with slack for runtime helpers), failing the test otherwise — the
// goleak-style check that cancelled pipelines drain their planner and
// shard workers.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after cancel: %d > %d\n%s", n, base,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTrainCancelMidEpoch cancels from inside a visit callback: Train must
// return ctx.Err(), having executed only part of the plan, and every
// pipeline goroutine must drain.
func TestTrainCancelMidEpoch(t *testing.T) {
	const entries = 1 << 10
	stream, err := GenerateTrace(TraceConfig{Kind: TraceUniform, N: entries, Count: 20000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	db, err := New(Options{Entries: entries, BlockSize: 16, Seed: 17, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visits atomic.Uint64
	st, err := db.Train(ctx, TrainOptions{
		Source:     FromSlice(stream),
		Superblock: 4,
		Window:     1024,
		PrePlace:   true,
		Visit: func(id uint64, payload []byte) []byte {
			if visits.Add(1) == 500 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Train returned %v, want context.Canceled", err)
	}
	if visits.Load() >= uint64(len(stream)) {
		t.Errorf("cancel had no effect: all %d visits ran", visits.Load())
	}
	if st == nil || st.Session.Bins == 0 {
		t.Errorf("expected partial progress in session counters, got %+v", st)
	}
	waitGoroutines(t, base)
}

// TestTrainCancelStalledSource cancels while the planner is blocked on a
// source that never delivers — the dataloader-hang scenario. Train must
// return promptly with ctx.Err() and drain.
func TestTrainCancelStalledSource(t *testing.T) {
	base := runtime.NumGoroutine()
	db, err := New(Options{Entries: 256, BlockSize: 16, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan uint64) // nothing is ever sent
	done := make(chan struct{})
	var trainErr error
	go func() {
		defer close(done)
		_, trainErr = db.Train(ctx, TrainOptions{Source: FromChannel(ch)})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Train did not return after cancel with a stalled source")
	}
	if !errors.Is(trainErr, context.Canceled) {
		t.Fatalf("Train returned %v, want context.Canceled", trainErr)
	}
	waitGoroutines(t, base)
}

// TestTrainCancelRemote cancels a training run over a remote server: Train
// returns ctx.Err() and the server connection is closed (subsequent remote
// accesses fail), the only way to unblock requests stalled on the network.
func TestTrainCancelRemote(t *testing.T) {
	const entries = 1 << 9
	const blockSize = 16
	addr := startShardedServer(t, entries, 1, blockSize)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db, err := NewContext(ctx, Options{Entries: entries, RemoteAddrs: []string{addr}, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stream, err := GenerateTrace(TraceConfig{Kind: TraceUniform, N: entries, Count: 8000, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	var visits atomic.Uint64
	_, err = db.Train(ctx, TrainOptions{
		Source:     FromSlice(stream),
		Superblock: 4,
		Window:     512,
		PrePlace:   true,
		Visit: func(id uint64, payload []byte) []byte {
			if visits.Add(1) == 100 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Train returned %v, want context.Canceled", err)
	}
	// The connection must be closed: further remote accesses fail.
	if _, err := db.Read(1); err == nil {
		t.Error("remote connection still usable after cancelled Train")
	}
	waitGoroutines(t, base)
}

// TestRecoveryValidation pins the TrainOptions.Recovery option errors: the
// recovery loop needs a source it can rewind and an instance it can
// checkpoint, and both must be rejected up front — not when the first
// failure strikes mid-epoch.
func TestRecoveryValidation(t *testing.T) {
	db, err := New(Options{Entries: 64, BlockSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	rec := &Recovery{CheckpointEvery: 1}

	if _, err := db.Train(ctx, TrainOptions{Source: FromChannel(make(chan uint64)), Recovery: rec}); err == nil {
		t.Error("Recovery with a non-rewindable channel source accepted")
	}
	for _, bad := range []Recovery{
		{CheckpointEvery: -1}, {MaxRestarts: -1}, {Backoff: -time.Second},
	} {
		if _, err := db.Train(ctx, TrainOptions{Source: FromSlice([]uint64{1}), Recovery: &bad}); err == nil {
			t.Errorf("negative Recovery field accepted: %+v", bad)
		}
	}

	// Non-checkpointable instances fail at NewTrainer, with the same errors
	// SaveState would give.
	rp, err := New(Options{Entries: 1 << 10, MetadataOnly: true, RecursivePosMap: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if _, err := rp.NewTrainer(TrainOptions{Source: FromSlice([]uint64{1}), Recovery: rec}); err == nil {
		t.Error("Recovery on a RecursivePosMap instance accepted")
	}
	vf, err := New(Options{Entries: 256, BlockSize: 8, Verify: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer vf.Close()
	if _, err := vf.NewTrainer(TrainOptions{Source: FromSlice([]uint64{1}), Recovery: rec}); err == nil {
		t.Error("Recovery on a Verify instance accepted")
	}
}

// TestTrainAccountingAfterCancel reconciles consumed-vs-trained counts when
// a run is cancelled mid-epoch: the planner legitimately reads ahead of the
// trainer — Depth windows queued, one more scanned and blocked on the
// queue, and the partially-trained window itself (consumed but not counted
// in Accesses) — so the counted source may be up to (Depth+2)·Window
// indices past TrainStats.Accesses, but never more, and never behind.
func TestTrainAccountingAfterCancel(t *testing.T) {
	const entries = 1 << 10
	const window = 1024
	const depth = 3
	stream, err := GenerateTrace(TraceConfig{Kind: TraceUniform, N: entries, Count: 20000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Options{Entries: entries, BlockSize: 16, Seed: 37, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := FromSlice(stream)
	var visits atomic.Uint64
	st, err := db.Train(ctx, TrainOptions{
		Source:     src,
		Superblock: 4,
		Window:     window,
		Depth:      depth,
		PrePlace:   true,
		Visit: func(id uint64, payload []byte) []byte {
			if visits.Add(1) == 5000 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Train returned %v, want context.Canceled", err)
	}
	consumed, trained := src.Pos(), st.Accesses
	if trained > consumed {
		t.Fatalf("trained %d accesses but consumed only %d from the source", trained, consumed)
	}
	if slack := consumed - trained; slack > (depth+2)*window {
		t.Errorf("source over-consumed by %d indices, look-ahead bound is %d",
			slack, (depth+2)*window)
	}
}

// TestTrainAccountingWithRecovery: an unfaulted local run under Recovery
// drives the checkpoint hook at every boundary and must still account for
// every index — source fully drained, every access trained, no recoveries,
// nothing rewound — while the boundary checkpoints show up in
// CheckpointTime.
func TestTrainAccountingWithRecovery(t *testing.T) {
	const entries = 1 << 9
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 3000, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Options{Entries: entries, BlockSize: 16, Seed: 43, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	src := FromSlice(stream)
	st, err := db.Train(context.Background(), TrainOptions{
		Source:     src,
		Superblock: 4,
		Window:     512,
		PrePlace:   true,
		Payload:    trainInit(16),
		Visit:      trainVisit,
		Recovery:   &Recovery{CheckpointEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if src.Pos() != uint64(len(stream)) {
		t.Errorf("source position %d after full run, want %d", src.Pos(), len(stream))
	}
	if st.Accesses != uint64(len(stream)) {
		t.Errorf("Accesses = %d, want %d", st.Accesses, len(stream))
	}
	if st.Recoveries != 0 || st.RewoundAccesses != 0 {
		t.Errorf("unfaulted run reports %d recoveries, %d rewound", st.Recoveries, st.RewoundAccesses)
	}
	if st.CheckpointTime <= 0 {
		t.Error("boundary checkpoints took no time — hook never ran")
	}
}

// TestIndexSourceAdapters pins the adapter semantics: FromSlice streams the
// slice, FromTrace matches GenerateTrace, FromChannel honours ctx.
func TestIndexSourceAdapters(t *testing.T) {
	ctx := context.Background()

	src := FromSlice([]uint64{1, 2, 3, 4, 5})
	buf := make([]uint64, 2)
	var got []uint64
	for {
		n, err := src.Read(ctx, buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Errorf("FromSlice streamed %v", got)
	}

	cfg := TraceConfig{Kind: TraceUniform, N: 100, Count: 50, Seed: 3}
	want, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := FromTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbuf := make([]uint64, 64)
	n, err := ts.Read(ctx, tbuf)
	if err != io.EOF || n != len(want) {
		t.Fatalf("FromTrace read %d (%v), want %d with EOF", n, err, len(want))
	}
	for i := range want {
		if tbuf[i] != want[i] {
			t.Fatalf("FromTrace[%d] = %d, want %d", i, tbuf[i], want[i])
		}
	}

	cctx, ccancel := context.WithCancel(ctx)
	ccancel()
	blocked := FromChannel(make(chan uint64))
	if _, err := blocked.Read(cctx, buf); !errors.Is(err, context.Canceled) {
		t.Errorf("FromChannel with cancelled ctx returned %v", err)
	}
}
