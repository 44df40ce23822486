package laoram

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestTieredIdentity pins DESIGN.md invariant #14 through the public API:
// a disk-backed instance (Options.DataDir) is byte-identical to the
// in-memory store under seed 42 for Shards ∈ {1, 4} at every memory
// budget (100%, 25%, 5% of tree size) — same batch read payloads, same
// engine statistics, same session counters, same decrypted tree snapshot.
// The cache may thrash and the prefetcher may race ahead, but nothing the
// client can observe moves. CryptoWorkers is pinned to 1 because the disk
// tier always seals serially; tier telemetry (which IS timing- and
// residency-dependent) is zeroed before comparison.
func TestTieredIdentity(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 32
	const seed = 42
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*13 + 7)
	}
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 3000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(id uint64) []byte {
		p := make([]byte, blockSize)
		for i := range p {
			p[i] = byte(id + uint64(i)*3)
		}
		return p
	}

	type outcome struct {
		reads [][]byte
		stats Stats
		sess  SessionStats
		snap  []byte
	}
	run := func(t *testing.T, shards int, dataDir string, budget int64) (outcome, int64) {
		t.Helper()
		db, err := New(Options{
			Entries:       entries,
			BlockSize:     blockSize,
			Encrypt:       true,
			Key:           key,
			FatTree:       true,
			Seed:          seed,
			Shards:        shards,
			CryptoWorkers: 1,
			DataDir:       dataDir,
			MemBudget:     budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		plan, err := db.Preprocess(stream, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.LoadForPlan(plan, payload); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		sess, err := db.NewSession(plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.RunBatched(8, func(id uint64, row []byte) []byte {
			row[0] += byte(id)
			return row
		}); err != nil {
			t.Fatal(err)
		}
		var ids []uint64
		for i := uint64(0); i < 64; i++ {
			ids = append(ids, (i*37)%entries)
		}
		wdata := make([][]byte, len(ids))
		for i, id := range ids {
			wdata[i] = payload(id + 1)
		}
		if err := db.WriteBatch(ids, wdata); err != nil {
			t.Fatal(err)
		}
		reads, err := db.ReadBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		if one, err := db.Read(ids[0]); err != nil {
			t.Fatal(err)
		} else {
			reads = append(reads, one)
		}
		var tree int64
		for _, ds := range db.disks {
			tree += ds.TreeBytes()
		}
		o := outcome{reads: reads, stats: db.Stats(), sess: sess.Stats(), snap: snapshotTree(t, db)}
		// Tier counters are the disk run's own telemetry — residency and
		// timing dependent, deliberately outside the identity contract.
		o.stats.TierHits = 0
		o.stats.TierMisses = 0
		o.stats.TierPrefetchIssued = 0
		o.stats.TierPrefetchUseful = 0
		o.stats.TierStallSeconds = 0
		return o, tree
	}

	same := func(t *testing.T, label string, mem, disk outcome) {
		t.Helper()
		if len(mem.reads) != len(disk.reads) {
			t.Fatalf("%s: read counts diverged: %d vs %d", label, len(mem.reads), len(disk.reads))
		}
		for i := range mem.reads {
			if !bytes.Equal(mem.reads[i], disk.reads[i]) {
				t.Fatalf("%s: read %d diverged from the in-memory run", label, i)
			}
		}
		if mem.stats != disk.stats {
			t.Fatalf("%s: engine stats diverged:\n  memory: %+v\n  disk:   %+v", label, mem.stats, disk.stats)
		}
		if mem.sess != disk.sess {
			t.Fatalf("%s: session stats diverged:\n  memory: %+v\n  disk:   %+v", label, mem.sess, disk.sess)
		}
		if !bytes.Equal(mem.snap, disk.snap) {
			t.Fatalf("%s: tree snapshot (position maps, stashes, decrypted server slots) diverged", label)
		}
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mem, _ := run(t, shards, "", 0)
			// Unbounded budget first, to learn the tree size for the
			// percentage budgets.
			full, tree := run(t, shards, filepath.Join(t.TempDir(), "full"), 0)
			same(t, "budget=100%", mem, full)
			for _, pct := range []int64{25, 5} {
				disk, _ := run(t, shards, filepath.Join(t.TempDir(), fmt.Sprintf("pct%d", pct)), tree*pct/100)
				same(t, fmt.Sprintf("budget=%d%%", pct), mem, disk)
			}
		})
	}
}

// TestTieredOptionValidation pins the Options cross-checks for the tiered
// storage fields: budgets and prefetch switches are meaningless without a
// data dir, and a data dir is incompatible with modes that have no payload
// tree to put on disk.
func TestTieredOptionValidation(t *testing.T) {
	base := Options{Entries: 256, BlockSize: 16}
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"negative budget", func(o *Options) { o.DataDir = t.TempDir(); o.MemBudget = -1 }, "MemBudget must be >= 0"},
		{"budget without data dir", func(o *Options) { o.MemBudget = 1 << 20 }, "requires Options.DataDir"},
		{"disable prefetch without data dir", func(o *Options) { o.DisablePrefetch = true }, "requires Options.DataDir"},
		{"metadata-only on disk", func(o *Options) { o.DataDir = t.TempDir(); o.MetadataOnly = true }, "MetadataOnly"},
		{"remote with data dir", func(o *Options) { o.DataDir = t.TempDir(); o.RemoteAddrs = []string{"127.0.0.1:1"} }, "laoramserve -data-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			tc.mut(&opts)
			_, err := New(opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%s) = %v, want error containing %q", tc.name, err, tc.want)
			}
		})
	}
	// The valid combination works end to end, including DisablePrefetch.
	db, err := New(Options{Entries: 256, BlockSize: 16, Seed: 1,
		DataDir: t.TempDir(), MemBudget: 1 << 20, DisablePrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(256, nil); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{9}, 16)
	if err := db.Write(3, want); err != nil {
		t.Fatal(err)
	}
	got, err := db.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("disk-backed round trip without prefetch failed")
	}
}
