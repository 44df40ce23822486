package laoram

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestCheckpointRoundTripLocal: a local instance checkpoints mid-run and a
// fresh instance restored from the checkpoint continues byte-identically —
// reads, stats, and a second checkpoint of the final state all match the
// uninterrupted original.
func TestCheckpointRoundTripLocal(t *testing.T) {
	const entries = 512
	const block = 16
	opts := Options{Entries: entries, BlockSize: block, Shards: 2, Seed: 42}
	db, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	payload := func(id uint64) []byte {
		p := make([]byte, block)
		for i := range p {
			p[i] = byte(id + uint64(i))
		}
		return p
	}
	if err := db.Load(entries, payload); err != nil {
		t.Fatal(err)
	}
	ids := trace.NewRNG(7)
	for i := 0; i < 200; i++ {
		id := uint64(ids.Int63n(entries))
		if i%3 == 0 {
			p := payload(id)
			p[0] ^= byte(i)
			if err := db.Write(id, p); err != nil {
				t.Fatal(err)
			}
		} else if _, err := db.Read(id); err != nil {
			t.Fatal(err)
		}
	}

	var ck bytes.Buffer
	if err := db.SaveState(&ck); err != nil {
		t.Fatal(err)
	}

	// Reference continuation on the original instance.
	contIDs := make([]uint64, 150)
	for i := range contIDs {
		contIDs[i] = uint64(ids.Int63n(entries))
	}
	want := make([][]byte, len(contIDs))
	for i, id := range contIDs {
		p, err := db.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = bytes.Clone(p)
	}
	wantStats := db.Stats()
	var wantFinal bytes.Buffer
	if err := db.SaveState(&wantFinal); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh instance and replay the continuation.
	db2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.LoadState(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, id := range contIDs {
		p, err := db2.Read(id)
		if err != nil {
			t.Fatalf("restored read %d: %v", id, err)
		}
		if !bytes.Equal(p, want[i]) {
			t.Fatalf("continuation read %d of block %d diverged", i, id)
		}
	}
	if got := db2.Stats(); got.Accesses != wantStats.Accesses ||
		got.PathReads != wantStats.PathReads || got.PathWrites != wantStats.PathWrites ||
		got.DummyReads != wantStats.DummyReads || got.StashPeak != wantStats.StashPeak {
		t.Errorf("restored stats diverged: %+v vs %+v", got, wantStats)
	}
	var gotFinal bytes.Buffer
	if err := db2.SaveState(&gotFinal); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantFinal.Bytes(), gotFinal.Bytes()) {
		t.Error("final checkpoint of restored instance differs from original run")
	}
}

// TestCheckpointRejectsRecursivePosMap: the documented Options-layer guard
// — a recursive position map's state lives in its own internal ORAMs and
// cannot be checkpointed, and SaveState/LoadState must say so rather than
// emit a checkpoint that silently drops it.
func TestCheckpointRejectsRecursivePosMap(t *testing.T) {
	db, err := New(Options{Entries: 1 << 10, MetadataOnly: true, RecursivePosMap: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var ck bytes.Buffer
	err = db.SaveState(&ck)
	if err == nil {
		t.Fatal("SaveState accepted RecursivePosMap")
	}
	if !strings.Contains(err.Error(), "RecursivePosMap") {
		t.Errorf("guard error does not name the option: %v", err)
	}
	if err := db.LoadState(bytes.NewReader(ck.Bytes())); err == nil {
		t.Fatal("LoadState accepted RecursivePosMap")
	}
}

// TestCheckpointRejectsVerify: Merkle digests are trusted state rebuilt at
// construction, not serialised — checkpointing a verified instance must be
// refused, not allowed to produce a restore that fails every read.
func TestCheckpointRejectsVerify(t *testing.T) {
	db, err := New(Options{Entries: 256, BlockSize: 8, Verify: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.SaveState(&bytes.Buffer{}); err == nil {
		t.Fatal("SaveState accepted Verify")
	}
	if err := db.LoadState(strings.NewReader("")); err == nil {
		t.Fatal("LoadState accepted Verify")
	}
}

// TestCheckpointEnvelopeErrors: garbage, superseded-version and
// local/remote-split mismatches are rejected at the envelope layer.
func TestCheckpointEnvelopeErrors(t *testing.T) {
	local, err := New(Options{Entries: 256, BlockSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if err := local.Load(256, nil); err != nil {
		t.Fatal(err)
	}
	if err := local.LoadState(strings.NewReader("definitely not a checkpoint")); err == nil {
		t.Error("garbage accepted")
	}
	// A v1 envelope (no epoch stamp) is recognised but refused with a
	// descriptive error, not parsed as garbage.
	var v1 [16]byte
	binary.LittleEndian.PutUint64(v1[:8], checkpointMagicV1)
	err = local.LoadState(bytes.NewReader(v1[:]))
	if err == nil {
		t.Error("v1 checkpoint accepted")
	} else if !strings.Contains(err.Error(), "version 1") {
		t.Errorf("v1 rejection does not say which version: %v", err)
	}
	var ck bytes.Buffer
	if err := local.SaveState(&ck); err != nil {
		t.Fatal(err)
	}

	// Both sides of the split carry per-shard tree sections in v2, but a
	// checkpoint must still restore into the kind of instance that recorded
	// it: the sections were serialised by that side's store implementation,
	// and crossing the split silently would put a client-held tree onto
	// serving nodes (or vice versa) that the operator never asked to move.
	addr := startShardedServer(t, 256, 1, 8)
	rem, err := New(Options{Entries: 256, RemoteAddrs: []string{addr}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	err = rem.LoadState(bytes.NewReader(ck.Bytes()))
	if err == nil {
		t.Error("remote instance accepted a local checkpoint")
	}
	var remCk bytes.Buffer
	if err := rem.SaveState(&remCk); err != nil {
		t.Fatal(err)
	}
	if err := local.LoadState(bytes.NewReader(remCk.Bytes())); err == nil {
		t.Error("local instance accepted a remote checkpoint")
	}
}
