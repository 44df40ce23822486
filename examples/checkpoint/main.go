// Checkpoint: survive a trainer restart mid-run.
//
// Embedding-table training runs for days; the ORAM client's trusted state
// (position map + stash) must be checkpointed alongside the model, or every
// block in the tree becomes unreachable after a crash. This example trains
// until the run is preempted (a cluster scheduler's cancellation, modelled
// by a context cancelled mid-epoch), checkpoints client and server state
// with SaveState, simulates the crash, restores into a fresh instance with
// LoadState, finishes the epoch, and verifies the data.
//
//	go run ./examples/checkpoint
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"

	laoram "repro"
)

func main() {
	const blocks = 1 << 12
	const blockSize = 64
	const window = 512
	const S = 4
	opts := laoram.Options{Entries: blocks, BlockSize: blockSize, Seed: 1}

	// One epoch over a permutation: every row is accessed exactly once, so
	// each look-ahead window of the stream visits exactly window rows.
	stream, err := laoram.GenerateTrace(laoram.TraceConfig{
		Kind: laoram.TracePermutation, N: blocks, Count: blocks, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	visits := 0
	touch := func(id uint64, payload []byte) []byte {
		out := make([]byte, len(payload))
		copy(out, payload)
		out[1]++ // visit counter
		visits++
		return out
	}

	// --- Phase 1: fresh trainer ---
	db, err := laoram.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	// Train until preempted. The preemption notice arrives halfway through
	// the epoch and is honoured at the end of the current window (visits
	// reach a multiple of window): Train resumes at window granularity —
	// TrainStats.Accesses counts fully executed windows only — so a
	// checkpoint holding part of a window would replay that part.
	ctx, preempt := context.WithCancel(context.Background())
	st, err := db.Train(ctx, laoram.TrainOptions{
		Source:     laoram.FromSlice(stream),
		Superblock: S,
		Window:     window,
		PrePlace:   true,
		Payload: func(id uint64) []byte {
			b := make([]byte, blockSize)
			b[0] = byte(id) // identity marker
			return b
		},
		Visit: func(id uint64, payload []byte) []byte {
			out := touch(id, payload)
			if visits >= len(stream)/2 && visits%window == 0 {
				preempt() // SIGTERM arrived; stop at this window boundary
			}
			return out
		},
	})
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("expected preemption, got %v", err)
	}
	if st.Accesses != uint64(visits) {
		log.Fatalf("preempted off a window boundary: %d accesses trained, %d visits", st.Accesses, visits)
	}
	fmt.Printf("phase 1: preempted after %d of %d accesses (%d windows)\n", st.Accesses, len(stream), st.Windows)

	// --- Checkpoint ---
	var snap bytes.Buffer
	if err := db.SaveState(&snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: client state + server tree %.1f MB\n", float64(snap.Len())/(1<<20))

	// --- Simulated crash: everything in memory is gone ---
	db.Close()

	// --- Phase 2: restore and resume ---
	db2, err := laoram.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	if err := db2.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		log.Fatal(err)
	}
	// Resume over the REMAINING stream. The restored instance is already
	// loaded, so no PrePlace: blocks sit where the last window left them.
	st2, err := db2.Train(context.Background(), laoram.TrainOptions{
		Source:     laoram.FromSlice(stream[st.Accesses:]),
		Superblock: S,
		Window:     window,
		Visit:      touch,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: trained the remaining %d accesses after restore (%d windows)\n",
		st2.Accesses, st2.Windows)

	// --- Verify: every stream access contributed exactly one visit ---
	want := map[uint64]byte{}
	for _, a := range stream {
		want[a]++
	}
	checked, mismatches := 0, 0
	for id, w := range want {
		payload, err := db2.Read(id)
		if err != nil {
			log.Fatal(err)
		}
		if payload[0] != byte(id) || payload[1] != w {
			mismatches++
		}
		checked++
	}
	if mismatches > 0 {
		log.Fatalf("%d/%d rows lost updates across the restart", mismatches, checked)
	}
	fmt.Printf("verified %d rows: no updates lost across the crash ✓\n", checked)
}
