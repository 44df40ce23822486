package laoram

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/oram"
	"repro/internal/superblock"
	"repro/internal/trace"
)

// TestShardsEquivalentToSingleORAM is the Shards=1 byte-identity check:
// the public engine with one shard must produce exactly the results of the
// hand-assembled single-ORAM stack (geometry → payload store → PathORAM
// client → superblock plan → LAORAM executor) on a fixed-seed trace —
// same payload bytes after training, same counter values.
func TestShardsEquivalentToSingleORAM(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 32
	const S = 4
	const seed = 1234
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 4000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	initPayload := func(id uint64) []byte {
		p := make([]byte, blockSize)
		for i := range p {
			p[i] = byte(id + uint64(i))
		}
		return p
	}
	visit := func(id uint64, payload []byte) []byte {
		out := make([]byte, len(payload))
		copy(out, payload)
		out[0] ^= byte(id)
		out[1]++
		return out
	}

	// Reference: the single-ORAM path assembled directly from internals,
	// mirroring what New/Preprocess/NewSession compose.
	g, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits: oram.LeafBitsFor(entries), LeafZ: 4, BlockSize: blockSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := oram.NewCountingStore(ps, nil)
	base, err := oram.NewClient(oram.ClientConfig{
		Store: cs, Rand: trace.NewRNG(seed), Evict: oram.PaperEvict,
		StashHits: true, Blocks: entries,
	})
	if err != nil {
		t.Fatal(err)
	}
	refPlan, err := superblock.NewPlan(stream, superblock.PlanConfig{
		S: S, Leaves: g.Leaves(), Rand: trace.NewRNG(seed + 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	la, err := core.New(core.Config{Base: base, Plan: refPlan})
	if err != nil {
		t.Fatal(err)
	}
	if err := la.LoadPrePlaced(entries, func(id oram.BlockID) []byte { return initPayload(uint64(id)) }); err != nil {
		t.Fatal(err)
	}
	if err := la.Run(func(id oram.BlockID, p []byte) []byte { return visit(uint64(id), p) }); err != nil {
		t.Fatal(err)
	}

	// Public path, Shards: 1 explicitly.
	db, err := New(Options{Entries: entries, BlockSize: blockSize, Seed: seed, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	plan, err := db.Preprocess(stream, S)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Bins(), refPlan.Len(); got != want {
		t.Fatalf("plan bins: public %d, reference %d", got, want)
	}
	if err := db.LoadForPlan(plan, initPayload); err != nil {
		t.Fatal(err)
	}
	sess, err := db.NewSession(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(visit); err != nil {
		t.Fatal(err)
	}

	refStats := la.Stats()
	pubSess := sess.Stats()
	if pubSess.Bins != refStats.Bins ||
		pubSess.LookaheadRemaps != refStats.LookaheadRemaps ||
		pubSess.UniformRemaps != refStats.UniformRemaps ||
		pubSess.ColdPathReads != refStats.ColdPathReads {
		t.Errorf("session stats diverge: public %+v, reference %+v", pubSess, refStats)
	}
	pub := db.Stats()
	if pub.Accesses != refStats.Accesses || pub.PathReads != refStats.PathReads ||
		pub.PathWrites != refStats.PathWrites || pub.DummyReads != refStats.DummyReads {
		t.Errorf("access stats diverge: public %+v, reference %+v", pub, refStats)
	}

	uniq := map[uint64]bool{}
	for _, id := range stream {
		uniq[id] = true
	}
	for id := range uniq {
		want, err := base.Read(oram.BlockID(id))
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: public path diverges from single-ORAM reference", id)
		}
	}
}

// TestShardsOption exercises the public sharded surface: round trips,
// batch fan-out, stats aggregation and the introspection helpers.
func TestShardsOption(t *testing.T) {
	const entries = 512
	const blockSize = 16
	db, err := New(Options{Entries: entries, BlockSize: blockSize, Seed: 5, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", db.Shards())
	}
	if err := db.Load(entries, nil); err != nil {
		t.Fatal(err)
	}
	ids := []uint64{0, 1, 2, 3, 100, 257, 511}
	data := make([][]byte, len(ids))
	for i, id := range ids {
		data[i] = bytes.Repeat([]byte{byte(id)}, blockSize)
	}
	if err := db.WriteBatch(ids, data); err != nil {
		t.Fatal(err)
	}
	got, err := db.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !bytes.Equal(got[i], data[i]) {
			t.Errorf("id %d: batch round trip mismatch", ids[i])
		}
	}
	st := db.Stats()
	if st.Accesses == 0 || st.ServerBytes <= 0 || st.PositionBytes <= 0 {
		t.Errorf("aggregated stats look empty: %+v", st)
	}
	if desc := db.Describe(); len(desc) == 0 || desc[0] != '4' {
		t.Errorf("Describe() = %q, want 4×[...] prefix", desc)
	}
	db.ResetStats()
	if st := db.Stats(); st.Accesses != 0 || st.StashPeak != 0 {
		t.Errorf("ResetStats left counters: %+v", st)
	}
}

// TestShardedSession runs a full look-ahead session over 4 shards and
// checks plan accounting, steady-state behaviour and payload updates.
func TestShardedSession(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 16
	db, err := New(Options{Entries: entries, BlockSize: blockSize, Seed: 9, Shards: 4, FatTree: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stream, err := GenerateTrace(TraceConfig{Kind: TraceGaussian, N: entries, Count: 5000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Preprocess(stream, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bins() == 0 || plan.UniqueBlocks() == 0 {
		t.Fatalf("empty plan: %d bins, %d blocks", plan.Bins(), plan.UniqueBlocks())
	}
	if err := db.LoadForPlan(plan, func(id uint64) []byte {
		return bytes.Repeat([]byte{byte(id)}, blockSize)
	}); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	sess, err := db.NewSession(plan)
	if err != nil {
		t.Fatal(err)
	}
	// A pure marker update: safe under concurrent lanes.
	marker := func(id uint64, payload []byte) []byte {
		out := bytes.Repeat([]byte{0xAB}, len(payload))
		out[0] = byte(id)
		return out
	}
	if err := sess.Run(marker); err != nil {
		t.Fatal(err)
	}
	if !sess.Done() {
		t.Fatal("session not done after Run")
	}
	st := sess.Stats()
	if int(st.Bins) != plan.Bins() {
		t.Errorf("executed %d bins, plan has %d", st.Bins, plan.Bins())
	}
	if st.ColdPathReads != 0 {
		t.Errorf("pre-placed run saw %d cold path reads", st.ColdPathReads)
	}
	for _, id := range []uint64{stream[0], stream[1], stream[len(stream)-1]} {
		got, err := db.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(id) || got[1] != 0xAB {
			t.Errorf("block %d: visit not applied: % x", id, got[:2])
		}
	}
}

// TestShardsValidation pins the sharding-specific construction errors.
func TestShardsValidation(t *testing.T) {
	if _, err := New(Options{Entries: 8, BlockSize: 16, Shards: 2, RemoteAddrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("Shards > 1 against a dead remote accepted")
	}
	if _, err := New(Options{Entries: 8, BlockSize: 16, Shards: 16}); err == nil {
		t.Error("more shards than entries accepted")
	}
	db, err := New(Options{Entries: 64, BlockSize: 16, Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	other, err := New(Options{Entries: 64, BlockSize: 16, Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	p, err := other.Preprocess([]uint64{1, 2, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewSession(p); err == nil {
		t.Error("plan from a 4-shard instance accepted by a 2-shard instance")
	}
}
