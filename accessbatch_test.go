package laoram

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/oram"
	"repro/internal/shard"
)

// batchOp is one access of a model-test batch. data is a write's payload,
// or what the model says a read returns.
type batchOp struct {
	write bool
	id    uint64
	data  []byte
}

// mixedBatch runs ops as one AccessBatch per shard lane — the engine's
// ReadBatch/WriteBatch cycle with reads and writes interleaved — and
// returns the read results in batch order.
func mixedBatch(db *ORAM, ops []batchOp) ([][]byte, error) {
	n := db.eng.Shards()
	lanes := make([][]oram.BatchAccess, n)
	at := make([][]int, n)
	for i, op := range ops {
		s := shard.ShardOf(op.id, n)
		a := oram.BatchAccess{Op: oram.OpRead, ID: oram.BlockID(shard.LocalID(op.id, n))}
		if op.write {
			a.Op, a.Data = oram.OpWrite, op.data
		}
		lanes[s] = append(lanes[s], a)
		at[s] = append(at[s], i)
	}
	out := make([][]byte, len(ops))
	for s, lane := range lanes {
		if err := db.eng.Sub(s).Client.AccessBatch(context.Background(), lane); err != nil {
			return nil, err
		}
		for k, i := range at[s] {
			out[i] = lane[k].Out
		}
	}
	return out, nil
}

// TestAccessBatchModel is the model-based property of the joint-fetch
// batch cycle: random batches — reads and writes mixed or homogeneous,
// repeated IDs, writes creating never-written blocks, lanes longer than
// oram.JointAccesses — must return what a map model of the table holds and
// what the same accesses return when issued one by one through Read/Write
// on an identically built instance. A read of a never-written block fails
// without moving a byte. Covered over the in-memory store, a sealed store
// with two crypto workers and remote loopback nodes (one per shard), at 1
// and 2 shards.
func TestAccessBatchModel(t *testing.T) {
	const entries = 512
	const loaded = 300 // blocks loaded up front; the rest start never-written
	const blockSize = 16
	kinds := []string{"memory", "sealed", "remote"}
	for _, kind := range kinds {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, shards), func(t *testing.T) {
				open := func(seed int64) *ORAM {
					opts := Options{Entries: entries, BlockSize: blockSize, Shards: shards, Seed: seed}
					switch kind {
					case "sealed":
						opts.Encrypt, opts.CryptoWorkers = true, 2
					case "remote":
						_, opts.RemoteAddrs = startNodes(t, entries, shards, shards, blockSize)
					}
					db, err := New(opts)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { db.Close() })
					if err := db.Load(loaded, func(id uint64) []byte { return bytes.Repeat([]byte{byte(id)}, blockSize) }); err != nil {
						t.Fatal(err)
					}
					return db
				}
				prop := func(seed int64) bool {
					rng := rand.New(rand.NewSource(seed))
					db, seq := open(seed), open(seed)
					model := map[uint64][]byte{}
					for id := uint64(0); id < loaded; id++ {
						model[id] = bytes.Repeat([]byte{byte(id)}, blockSize)
					}
					stamp := 0
					written := func() uint64 { // a written ID, under the model
						for {
							if id := uint64(rng.Intn(entries)); model[id] != nil {
								return id
							}
						}
					}
					for b := 0; b < 8; b++ {
						shape := rng.Intn(3) // 0: ReadBatch, 1: WriteBatch, 2: mixed
						ops := make([]batchOp, 1+rng.Intn(3*oram.JointAccesses))
						for i := range ops {
							op := &ops[i]
							op.write = shape == 1 || (shape == 2 && rng.Intn(2) == 0)
							switch {
							case i > 0 && rng.Intn(5) == 0:
								op.id = ops[rng.Intn(i)].id // a repeat
								if !op.write && model[op.id] == nil {
									op.id = written()
								}
							case op.write:
								op.id = uint64(rng.Intn(entries)) // may create the block
							default:
								op.id = written()
							}
							if op.write {
								stamp++
								model[op.id] = bytes.Repeat([]byte{byte(stamp), byte(stamp >> 8)}, blockSize/2)
							}
							op.data = model[op.id]
						}
						var got [][]byte
						var err error
						switch shape {
						case 0:
							ids := make([]uint64, len(ops))
							for i := range ops {
								ids[i] = ops[i].id
							}
							got, err = db.ReadBatch(ids)
						case 1:
							ids, data := make([]uint64, len(ops)), make([][]byte, len(ops))
							for i := range ops {
								ids[i], data[i] = ops[i].id, ops[i].data
							}
							err = db.WriteBatch(ids, data)
						default:
							got, err = mixedBatch(db, ops)
						}
						if err != nil {
							t.Logf("seed %d batch %d: %v", seed, b, err)
							return false
						}
						// Check reads against the model, and replay the batch
						// one access at a time on the twin.
						for i, op := range ops {
							if op.write {
								if err := seq.Write(op.id, op.data); err != nil {
									t.Logf("seed %d: sequential write: %v", seed, err)
									return false
								}
								continue
							}
							if !bytes.Equal(got[i], op.data) {
								t.Logf("seed %d batch %d op %d (id %d): batch %x, model %x", seed, b, i, op.id, got[i], op.data)
								return false
							}
							one, err := seq.Read(op.id)
							if err != nil {
								t.Logf("seed %d: sequential read: %v", seed, err)
								return false
							}
							if !bytes.Equal(got[i], one) {
								t.Logf("seed %d batch %d op %d (id %d): batch %x, sequential %x", seed, b, i, op.id, got[i], one)
								return false
							}
						}
					}
					// The whole table, under the model.
					var ids []uint64
					for id, v := range model {
						if v != nil {
							ids = append(ids, id)
						}
					}
					got, err := db.ReadBatch(ids)
					if err != nil {
						t.Logf("seed %d: final read: %v", seed, err)
						return false
					}
					for i, id := range ids {
						if !bytes.Equal(got[i], model[id]) {
							t.Logf("seed %d: block %d holds %x, model %x", seed, id, got[i], model[id])
							return false
						}
					}
					// A never-written block cannot be read, even beside a
					// written one in its lane, and the failed joint fetch
					// moves nothing.
					for id := uint64(loaded); id < entries; id++ {
						if model[id] != nil {
							continue
						}
						mate := id % uint64(shards) // a loaded block in the same lane
						if model[mate] == nil {
							continue
						}
						before := db.Stats().BytesMoved
						if _, err := db.ReadBatch([]uint64{mate, id}); err == nil {
							t.Logf("seed %d: read of never-written block %d succeeded", seed, id)
							return false
						}
						if moved := db.Stats().BytesMoved - before; moved != 0 {
							t.Logf("seed %d: failed batch moved %d bytes", seed, moved)
							return false
						}
						break
					}
					return true
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 4}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
