package laoram

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/shard"
)

// equivGrad is a deterministic synthetic gradient: a hash-driven direction
// scaled by the row's own magnitude, so every update depends on the row's
// current value and the replay must apply updates in the same order.
func equivGrad(step, id uint64, row, grad []float32) {
	for i := range grad {
		h := step ^ id*0x2545F4914F6CDD1D ^ uint64(i)
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
		grad[i] = (float32(h>>40)/float32(1<<24) - 0.5) * (row[i] + 0.01)
	}
}

// sgd applies row -= lr·grad in place.
func sgd(row, grad []float32, lr float32) {
	for i := range row {
		row[i] -= lr * grad[i]
	}
}

// TestTrainingEquivalence is integration invariant #5 (DESIGN.md): training
// through ORAM.Train produces a table bit-identical to a plaintext table
// that replays the same schedule, gradients and optimiser. The schedule is
// per shard lane: each lane visits its bins in plan order with a
// lane-local step counter. With Window 0 the Trainer runs exactly the plan
// Preprocess builds under the same seed (invariant #9), so the reference
// replays that plan's bins.
func TestTrainingEquivalence(t *testing.T) {
	cfg := TableConfig{Rows: 512, Dim: 8}
	const S = 4
	const lr = 0.1
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: cfg.Rows, Count: 3 * int(cfg.Rows), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		for _, sealed := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/sealed=%v", shards, sealed), func(t *testing.T) {
				opts := Options{Entries: cfg.Rows, BlockSize: cfg.RowBytes(), Shards: shards, Encrypt: sealed, Seed: 11}
				db, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				st, err := db.Train(context.Background(), TrainOptions{
					Source:     FromSlice(stream),
					Superblock: S,
					PrePlace:   true,
					Payload:    InitRowBytes(cfg),
					PerLane: func(int) Visit {
						var step uint64
						grad := make([]float32, cfg.Dim)
						return func(id uint64, payload []byte) []byte {
							row, err := DecodeRow(payload)
							if err != nil {
								panic(err)
							}
							equivGrad(step, id, row, grad)
							sgd(row, grad, lr)
							step++
							return EncodeRow(row)
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if st.Windows != 1 || st.Accesses != uint64(len(stream)) {
					t.Fatalf("trained %d windows / %d accesses, want 1 / %d", st.Windows, st.Accesses, len(stream))
				}

				// Plaintext reference: replay the Preprocess plan lane by lane.
				plan, err := db.Preprocess(stream, S)
				if err != nil {
					t.Fatal(err)
				}
				want := make([][]float32, cfg.Rows)
				for id := range want {
					want[id] = InitRow(cfg, uint64(id))
				}
				grad := make([]float32, cfg.Dim)
				p := plan.plan
				for lane := 0; lane < p.Shards(); lane++ {
					sp := p.ShardPlan(lane)
					var step uint64
					for b := 0; b < sp.Len(); b++ {
						for _, local := range sp.Bin(b).Blocks {
							id := shard.GlobalID(uint64(local), lane, p.Shards())
							equivGrad(step, id, want[id], grad)
							sgd(want[id], grad, lr)
							step++
						}
					}
				}

				for id := uint64(0); id < cfg.Rows; id++ {
					payload, err := db.Read(id)
					if err != nil {
						t.Fatalf("read row %d: %v", id, err)
					}
					got, err := DecodeRow(payload)
					if err != nil {
						t.Fatal(err)
					}
					for k := range got {
						if math.Float32bits(got[k]) != math.Float32bits(want[id][k]) {
							t.Fatalf("row %d elem %d: %v != %v (bit-exact check)", id, k, got[k], want[id][k])
						}
					}
				}
			})
		}
	}
}
