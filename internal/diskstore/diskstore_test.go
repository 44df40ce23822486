package diskstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/oram"
)

func testGeometry(t *testing.T, leafBits, z, blockSize int) *oram.Geometry {
	t.Helper()
	g, err := oram.NewGeometry(oram.GeometryConfig{LeafBits: leafBits, LeafZ: z, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func openStore(t *testing.T, g *oram.Geometry, budget int64, prefetch bool) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g, MemBudget: budget, Prefetch: prefetch})
	if err != nil {
		t.Fatal(err)
	}
	return st, path
}

func slotsEqual(a, b []oram.Slot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Leaf != b[i].Leaf || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// TestDifferentialVsPayloadStore drives a disk-backed store and an
// in-memory PayloadStore through the same randomized operation sequence
// (bucket/slot/path/batch reads and writes, dummies, nil payloads,
// interleaved Syncs) and requires every read to agree — at an unbounded
// budget and at a thrashing 2-path budget.
func TestDifferentialVsPayloadStore(t *testing.T) {
	g := testGeometry(t, 4, 4, 24)
	for _, budget := range []int64{0, 1} { // 1 clamps up to the 2-path floor
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			mem, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			disk, _ := openStore(t, g, budget, false)
			defer disk.Close()

			rng := rand.New(rand.NewSource(42))
			randSlots := func(lvl int) []oram.Slot {
				out := make([]oram.Slot, g.BucketSize(lvl))
				for k := range out {
					switch rng.Intn(4) {
					case 0: // dummy
						out[k] = oram.Slot{ID: oram.DummyID}
					case 1: // real block, nil payload (zero row)
						out[k] = oram.Slot{ID: oram.BlockID(rng.Intn(64)), Leaf: oram.Leaf(rng.Intn(16))}
					default:
						p := make([]byte, g.BlockSize())
						rng.Read(p)
						out[k] = oram.Slot{ID: oram.BlockID(rng.Intn(64)), Leaf: oram.Leaf(rng.Intn(16)), Payload: p}
					}
				}
				return out
			}
			randBucket := func() (int, uint64) {
				lvl := rng.Intn(g.Levels())
				return lvl, uint64(rng.Intn(1 << uint(lvl)))
			}
			check := func(op string, lvl int, node uint64) {
				t.Helper()
				want := make([]oram.Slot, g.BucketSize(lvl))
				got := make([]oram.Slot, g.BucketSize(lvl))
				if err := mem.ReadBucket(lvl, node, want); err != nil {
					t.Fatal(err)
				}
				if err := disk.ReadBucket(lvl, node, got); err != nil {
					t.Fatal(err)
				}
				if !slotsEqual(want, got) {
					t.Fatalf("%s: bucket (%d,%d) diverged:\n  mem:  %+v\n  disk: %+v", op, lvl, node, want, got)
				}
			}

			for i := 0; i < 400; i++ {
				switch rng.Intn(6) {
				case 0:
					lvl, node := randBucket()
					src := randSlots(lvl)
					if err := mem.WriteBucket(lvl, node, src); err != nil {
						t.Fatal(err)
					}
					if err := disk.WriteBucket(lvl, node, src); err != nil {
						t.Fatal(err)
					}
					check("WriteBucket", lvl, node)
				case 1:
					lvl, node := randBucket()
					k := rng.Intn(g.BucketSize(lvl))
					s := randSlots(lvl)[0]
					if err := mem.WriteSlot(lvl, node, k, s); err != nil {
						t.Fatal(err)
					}
					if err := disk.WriteSlot(lvl, node, k, s); err != nil {
						t.Fatal(err)
					}
					var a, b oram.Slot
					if err := mem.ReadSlot(lvl, node, k, &a); err != nil {
						t.Fatal(err)
					}
					if err := disk.ReadSlot(lvl, node, k, &b); err != nil {
						t.Fatal(err)
					}
					if !slotsEqual([]oram.Slot{a}, []oram.Slot{b}) {
						t.Fatalf("WriteSlot: slot (%d,%d,%d) diverged", lvl, node, k)
					}
				case 2:
					leaf := oram.Leaf(rng.Intn(1 << 4))
					src := make([][]oram.Slot, g.Levels())
					for lvl := range src {
						src[lvl] = randSlots(lvl)
					}
					if err := mem.WritePath(leaf, src); err != nil {
						t.Fatal(err)
					}
					if err := disk.WritePath(leaf, src); err != nil {
						t.Fatal(err)
					}
				case 3:
					leaf := oram.Leaf(rng.Intn(1 << 4))
					want := make([][]oram.Slot, g.Levels())
					got := make([][]oram.Slot, g.Levels())
					for lvl := range want {
						want[lvl] = make([]oram.Slot, g.BucketSize(lvl))
						got[lvl] = make([]oram.Slot, g.BucketSize(lvl))
					}
					if err := mem.ReadPath(leaf, want); err != nil {
						t.Fatal(err)
					}
					if err := disk.ReadPath(leaf, got); err != nil {
						t.Fatal(err)
					}
					for lvl := range want {
						if !slotsEqual(want[lvl], got[lvl]) {
							t.Fatalf("ReadPath leaf %d level %d diverged", leaf, lvl)
						}
					}
				case 4:
					n := rng.Intn(4) + 1
					refs := make([]oram.BucketRef, n)
					src := make([][]oram.Slot, n)
					for j := range refs {
						lvl, node := randBucket()
						refs[j] = oram.BucketRef{Level: lvl, Node: node}
						src[j] = randSlots(lvl)
					}
					if err := mem.WriteBuckets(refs, src); err != nil {
						t.Fatal(err)
					}
					if err := disk.WriteBuckets(refs, src); err != nil {
						t.Fatal(err)
					}
					for _, r := range refs {
						check("WriteBuckets", r.Level, r.Node)
					}
				case 5:
					if rng.Intn(8) == 0 {
						if err := disk.Sync(); err != nil {
							t.Fatal(err)
						}
					}
					lvl, node := randBucket()
					check("Read", lvl, node)
				}
			}
		})
	}
}

// TestFreshArenaIsAllDummies pins the init contract: a new arena serves
// exactly what a new PayloadStore serves — every slot a dummy with leaf 0
// and nil payload (a zeroed file would instead decode as block 0
// everywhere, which is why dummies are written explicitly).
func TestFreshArenaIsAllDummies(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	disk, _ := openStore(t, g, 0, false)
	defer disk.Close()
	for lvl := 0; lvl < g.Levels(); lvl++ {
		buf := make([]oram.Slot, g.BucketSize(lvl))
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := disk.ReadBucket(lvl, node, buf); err != nil {
				t.Fatal(err)
			}
			for k, s := range buf {
				if s.ID != oram.DummyID || s.Leaf != 0 || s.Payload != nil {
					t.Fatalf("fresh bucket (%d,%d) slot %d = %+v, want dummy", lvl, node, k, s)
				}
			}
		}
	}
}

// TestResume pins the durability contract: content written before Close
// is served after reopening the same arena, and each clean cycle advances
// the epoch.
func TestResume(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	e0 := st.Epoch()
	src := make([]oram.Slot, g.BucketSize(2))
	for k := range src {
		src[k] = oram.Slot{ID: oram.BlockID(k), Leaf: 3, Payload: bytes.Repeat([]byte{byte(k + 1)}, g.BlockSize())}
	}
	if err := st.WriteBucket(2, 1, src); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatalf("reopening a cleanly closed arena: %v", err)
	}
	defer st2.Close()
	if got := st2.Epoch(); got <= e0 {
		t.Fatalf("epoch did not advance across a dirty cycle: %d -> %d", e0, got)
	}
	got := make([]oram.Slot, g.BucketSize(2))
	if err := st2.ReadBucket(2, 1, got); err != nil {
		t.Fatal(err)
	}
	if !slotsEqual(src, got) {
		t.Fatalf("resumed bucket diverged: %+v vs %+v", src, got)
	}
}

// TestGeometryMismatchRejected: an arena refuses to open under a
// different tree shape or payload stride.
func TestGeometryMismatchRejected(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*oram.Geometry{
		testGeometry(t, 4, 4, 16), // different height
		testGeometry(t, 3, 4, 24), // different stride
	} {
		if _, err := Open(Config{Path: path, Geometry: bad}); err == nil {
			t.Fatalf("arena for %v opened under mismatched geometry %v", g, bad)
		}
	}
}

// TestSnapshotInterchange pins the checkpoint compatibility contract:
// PayloadStore.Save restores into a disk store, the disk store's Save is
// byte-identical to what PayloadStore would have written, and that
// snapshot restores into a fresh PayloadStore — so laoramserve
// checkpoints are backend-agnostic.
func TestSnapshotInterchange(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	mem, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for lvl := 0; lvl < g.Levels(); lvl++ {
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			src := make([]oram.Slot, g.BucketSize(lvl))
			for k := range src {
				if rng.Intn(3) == 0 {
					src[k] = oram.Slot{ID: oram.DummyID}
					continue
				}
				p := make([]byte, g.BlockSize())
				rng.Read(p)
				src[k] = oram.Slot{ID: oram.BlockID(rng.Intn(100)), Leaf: oram.Leaf(rng.Intn(8)), Payload: p}
			}
			if err := mem.WriteBucket(lvl, node, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	var memSnap bytes.Buffer
	if err := mem.Save(&memSnap); err != nil {
		t.Fatal(err)
	}

	disk, _ := openStore(t, g, 1, false) // thrashing budget: Load must not depend on the cache
	defer disk.Close()
	if err := disk.Load(bytes.NewReader(memSnap.Bytes())); err != nil {
		t.Fatal(err)
	}
	for lvl := 0; lvl < g.Levels(); lvl++ {
		want := make([]oram.Slot, g.BucketSize(lvl))
		got := make([]oram.Slot, g.BucketSize(lvl))
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := mem.ReadBucket(lvl, node, want); err != nil {
				t.Fatal(err)
			}
			if err := disk.ReadBucket(lvl, node, got); err != nil {
				t.Fatal(err)
			}
			if !slotsEqual(want, got) {
				t.Fatalf("restored bucket (%d,%d) diverged", lvl, node)
			}
		}
	}

	var diskSnap bytes.Buffer
	if err := disk.Save(&diskSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memSnap.Bytes(), diskSnap.Bytes()) {
		t.Fatal("disk-backed Save is not byte-identical to PayloadStore.Save")
	}
	mem2, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem2.Load(bytes.NewReader(diskSnap.Bytes())); err != nil {
		t.Fatalf("PayloadStore rejected a disk-backed snapshot: %v", err)
	}
}

// TestPrefetchFaultsPathsIn: hinted paths land in the memory tier and
// turn subsequent demand reads into useful-prefetch hits, without any
// effect on the returned contents.
func TestPrefetchFaultsPathsIn(t *testing.T) {
	g := testGeometry(t, 4, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	// Populate, close, and reopen small + prefetching so the cache is cold.
	want := make([][]oram.Slot, g.Levels())
	for lvl := range want {
		want[lvl] = make([]oram.Slot, g.BucketSize(lvl))
		for k := range want[lvl] {
			p := bytes.Repeat([]byte{byte(lvl*16 + k + 1)}, g.BlockSize())
			want[lvl][k] = oram.Slot{ID: oram.BlockID(lvl*10 + k), Leaf: 5, Payload: p}
		}
	}
	if err := st.WritePath(5, want); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(Config{Path: path, Geometry: g, MemBudget: 1, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	st.PrefetchPaths([]oram.Leaf{5})
	deadline := time.Now().Add(5 * time.Second)
	for st.TierStats().PrefetchIssued < uint64(g.Levels()) {
		if time.Now().After(deadline) {
			t.Fatalf("prefetcher faulted only %d of %d hinted buckets", st.TierStats().PrefetchIssued, g.Levels())
		}
		time.Sleep(time.Millisecond)
	}
	got := make([][]oram.Slot, g.Levels())
	for lvl := range got {
		got[lvl] = make([]oram.Slot, g.BucketSize(lvl))
	}
	if err := st.ReadPath(5, got); err != nil {
		t.Fatal(err)
	}
	for lvl := range want {
		if !slotsEqual(want[lvl], got[lvl]) {
			t.Fatalf("prefetched path level %d diverged", lvl)
		}
	}
	ts := st.TierStats()
	if ts.Hits == 0 || ts.PrefetchUseful == 0 {
		t.Fatalf("demand read of a prefetched path recorded no useful prefetches: %+v", ts)
	}
	if ts.Misses != 0 {
		t.Fatalf("fully prefetched path still demand-missed: %+v", ts)
	}

	// Duplicate hints on resident paths issue nothing new.
	issued := ts.PrefetchIssued
	st.PrefetchPaths([]oram.Leaf{5})
	time.Sleep(10 * time.Millisecond)
	if got := st.TierStats().PrefetchIssued; got != issued {
		t.Fatalf("re-hinting a resident path issued %d extra prefetches", got-issued)
	}
}

// TestPrefetchUsefulAcrossReset: a prefetch issued before ResetTierStats
// and demanded after it is not counted as useful, so PrefetchUseful never
// exceeds PrefetchIssued; prefetches issued after the reset still count.
func TestPrefetchUsefulAcrossReset(t *testing.T) {
	g := testGeometry(t, 4, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	bufs := func() [][]oram.Slot {
		b := make([][]oram.Slot, g.Levels())
		for lvl := range b {
			b[lvl] = make([]oram.Slot, g.BucketSize(lvl))
			for k := range b[lvl] {
				b[lvl][k] = oram.DummySlot()
			}
		}
		return b
	}
	for _, leaf := range []oram.Leaf{5, 10} {
		if err := st.WritePath(leaf, bufs()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(Config{Path: path, Geometry: g, MemBudget: 1 << 20, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	waitIssued := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for st.TierStats().PrefetchIssued < n {
			if time.Now().After(deadline) {
				t.Fatalf("prefetcher issued %d of %d buckets", st.TierStats().PrefetchIssued, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	check := func(when string) oram.TierStats {
		t.Helper()
		ts := st.TierStats()
		if ts.PrefetchUseful > ts.PrefetchIssued {
			t.Fatalf("%s: PrefetchUseful %d > PrefetchIssued %d", when, ts.PrefetchUseful, ts.PrefetchIssued)
		}
		return ts
	}

	// Path 5 is prefetched, then the counters reset before it is demanded.
	st.PrefetchPaths([]oram.Leaf{5})
	waitIssued(uint64(g.Levels()))
	st.ResetTierStats()
	if err := st.ReadPath(5, bufs()); err != nil {
		t.Fatal(err)
	}
	if ts := check("demand after reset"); ts.PrefetchUseful != 0 {
		t.Fatalf("prefetches issued before the reset counted as useful after it: %+v", ts)
	}

	// Path 10 shares only the root with path 5: its other buckets are
	// prefetched after the reset and count when demanded.
	st.PrefetchPaths([]oram.Leaf{10})
	waitIssued(uint64(g.Levels() - 1))
	if err := st.ReadPath(10, bufs()); err != nil {
		t.Fatal(err)
	}
	if ts := check("second path"); ts.PrefetchUseful != uint64(g.Levels()-1) {
		t.Fatalf("PrefetchUseful = %d after demanding %d post-reset prefetches: %+v", ts.PrefetchUseful, g.Levels()-1, ts)
	}
}

// TestPrefetchSkipsStaleRecord: a prefetch whose disk read overlaps a
// write-back of the same bucket must not install the record it read.
// Between the prefetcher's read and install steps the demand path faults
// the bucket in, rewrites it and evicts it back to disk; installing the
// earlier record — CRC-valid, so nothing downstream would notice — would
// silently lose the write.
func TestPrefetchSkipsStaleRecord(t *testing.T) {
	g := testGeometry(t, 4, 4, 16)
	st, _ := openStore(t, g, 1, false) // budget clamps to two paths
	defer st.Close()
	const leaf = 3
	lvl := g.Levels() - 1
	node := g.NodeAt(leaf, lvl)
	key := bucketKey(lvl, node)

	rec := st.newScratch()[lvl]
	seq, ok := st.prefetchRead(lvl, node, rec)
	if !ok {
		t.Fatal("prefetch read of a cold bucket failed")
	}

	want := make([]oram.Slot, g.BucketSize(lvl))
	for k := range want {
		want[k] = oram.DummySlot()
	}
	want[0] = oram.Slot{ID: 7, Leaf: leaf, Payload: bytes.Repeat([]byte{0xAB}, g.BlockSize())}
	if err := st.WriteBucket(lvl, node, want); err != nil {
		t.Fatal(err)
	}
	path := make([][]oram.Slot, g.Levels())
	for l := range path {
		path[l] = make([]oram.Slot, g.BucketSize(l))
	}
	for other := oram.Leaf(8); other < 16; other++ {
		if err := st.ReadPath(other, path); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	_, resident := st.cache[key]
	st.mu.Unlock()
	if resident {
		t.Fatal("written bucket still resident after thrashing a two-path budget")
	}

	st.prefetchInstall(lvl, node, rec, seq)
	got := make([]oram.Slot, g.BucketSize(lvl))
	if err := st.ReadBucket(lvl, node, got); err != nil {
		t.Fatal(err)
	}
	if !slotsEqual(want, got) {
		t.Fatalf("stale prefetched record installed over a written-back bucket: got %+v", got[0])
	}
	if n := st.TierStats().PrefetchIssued; n != 0 {
		t.Fatalf("stale prefetch counted as issued (%d)", n)
	}
}

// TestSealedStore exercises the sealed-at-rest path: payloads round-trip
// through seal/open and the arena never holds plaintext.
func TestSealedStore(t *testing.T) {
	g := testGeometry(t, 3, 4, 32)
	sealer := newTestSealer(t)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g, Sealer: sealer})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	plain := bytes.Repeat([]byte{0xC3}, g.BlockSize())
	src := make([]oram.Slot, g.BucketSize(1))
	src[0] = oram.Slot{ID: 1, Leaf: 2, Payload: plain}
	for k := 1; k < len(src); k++ {
		src[k] = oram.Slot{ID: oram.DummyID}
	}
	if err := st.WriteBucket(1, 0, src); err != nil {
		t.Fatal(err)
	}
	got := make([]oram.Slot, g.BucketSize(1))
	if err := st.ReadBucket(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !slotsEqual(src, got) {
		t.Fatalf("sealed round-trip diverged: %+v vs %+v", src, got)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	raw := readFileRange(t, path, st.recOff(1, 0), recLen(g.BucketSize(1), st.stride))
	if bytes.Contains(raw, plain) {
		t.Fatal("arena holds plaintext payload bytes despite a sealer")
	}
}
