package oram

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestWriteBackPathsConservation is the regression test for the multi-path
// clobbering bug: reading several overlapping paths and writing them back
// jointly must preserve every block exactly once (tree ∪ stash).
func TestWriteBackPathsConservation(t *testing.T) {
	const blocks = 128
	c, cs := newTestClient(t, 7, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 60; round++ {
		k := 2 + rng.Intn(3) // 2..4 paths per round
		leaves := make([]Leaf, 0, k)
		seen := map[Leaf]bool{}
		for len(leaves) < k {
			l := Leaf(rng.Int63n(int64(c.Geometry().Leaves())))
			if !seen[l] {
				seen[l] = true
				leaves = append(leaves, l)
			}
		}
		for _, l := range leaves {
			if err := c.ReadPath(l); err != nil {
				t.Fatal(err)
			}
		}
		// Remap a few stashed blocks to fresh leaves (as a superblock
		// client would).
		for _, id := range c.Stash().IDs() {
			if rng.Intn(2) == 0 {
				nl := c.RandomLeaf()
				c.PosMap().Set(id, nl)
				c.Stash().SetLeaf(id, nl)
			}
		}
		if err := c.WriteBackPaths(leaves); err != nil {
			t.Fatal(err)
		}
		inTree := scanTree(t, cs)
		for id := BlockID(0); id < blocks; id++ {
			n := inTree[id]
			if c.Stash().Contains(id) {
				n++
			}
			if n != 1 {
				t.Fatalf("round %d: block %d present %d times", round, id, n)
			}
		}
	}
}

// TestWriteBackPathsPlacementLegality: every block written must land on the
// path of its assigned leaf.
func TestWriteBackPathsPlacementLegality(t *testing.T) {
	const blocks = 64
	c, cs := newTestClient(t, 6, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	leaves := []Leaf{0, 31, 32, 63}
	for _, l := range leaves {
		if err := c.ReadPath(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBackPaths(leaves); err != nil {
		t.Fatal(err)
	}
	g := c.Geometry()
	for lvl := 0; lvl < g.Levels(); lvl++ {
		buf := make([]Slot, g.BucketSize(lvl))
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := cs.ReadBucket(lvl, node, buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				if buf[i].Dummy() {
					continue
				}
				if g.NodeAt(buf[i].Leaf, lvl) != node {
					t.Errorf("block %d (leaf %d) stored off-path at level %d node %d",
						buf[i].ID, buf[i].Leaf, lvl, node)
				}
			}
		}
	}
}

func TestWriteBackPathsEdgeCases(t *testing.T) {
	const blocks = 16
	c, _ := newTestClient(t, 4, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Empty set is a no-op.
	if err := c.WriteBackPaths(nil); err != nil {
		t.Fatal(err)
	}
	// Single path delegates to WriteBackPath.
	if err := c.ReadPath(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackPaths([]Leaf{3}); err != nil {
		t.Fatal(err)
	}
	// Invalid leaf rejected.
	if err := c.WriteBackPaths([]Leaf{1, Leaf(1 << 40)}); err == nil {
		t.Error("invalid leaf accepted")
	}
	// Duplicate leaves collapse (shared buckets written once).
	if err := c.ReadPath(5); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackPaths([]Leaf{5, 5}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBackPathsDrainsStash: with enough room, the joint write-back
// should place read blocks back rather than strand them in the stash.
func TestWriteBackPathsDrainsStash(t *testing.T) {
	const blocks = 64
	c, _ := newTestClient(t, 6, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	start := c.Stash().Len()
	leaves := []Leaf{7, 21}
	for _, l := range leaves {
		if err := c.ReadPath(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBackPaths(leaves); err != nil {
		t.Fatal(err)
	}
	// Nothing was remapped, so every block read must fit back exactly
	// where it was.
	if c.Stash().Len() != start {
		t.Errorf("stash grew from %d to %d without remaps", start, c.Stash().Len())
	}
}

// greedyReference is the original quadratic WriteBackPaths placement, kept
// as the specification the linear pass must match: the union deepest level
// first (ascending node within a level), and for each bucket a scan of the
// ascending stash IDs taking the not-yet-placed blocks whose path crosses
// it, up to its capacity.
func greedyReference(g *Geometry, stash map[BlockID]Leaf, leaves []Leaf) ([]BucketRef, [][]BlockID) {
	var buckets []BucketRef
	seen := map[BucketRef]bool{}
	for lvl := g.Levels() - 1; lvl >= 0; lvl-- {
		start := len(buckets)
		for _, l := range leaves {
			b := BucketRef{Level: lvl, Node: g.NodeAt(l, lvl)}
			if !seen[b] {
				seen[b] = true
				buckets = append(buckets, b)
			}
		}
		slices.SortFunc(buckets[start:], func(a, b BucketRef) int { return cmp.Compare(a.Node, b.Node) })
	}
	ids := make([]BlockID, 0, len(stash))
	for id := range stash {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	placed := map[BlockID]bool{}
	plan := make([][]BlockID, len(buckets))
	for i, b := range buckets {
		for _, id := range ids {
			if len(plan[i]) == g.BucketSize(b.Level) {
				break
			}
			if !placed[id] && g.NodeAt(stash[id], b.Level) == b.Node {
				plan[i] = append(plan[i], id)
				placed[id] = true
			}
		}
	}
	return buckets, plan
}

// writeLog records the bucket writes reaching a store, in order.
type writeLog struct {
	Store
	refs  []BucketRef
	slots [][]Slot
}

func (w *writeLog) WriteBucket(level int, node uint64, src []Slot) error {
	w.refs = append(w.refs, BucketRef{Level: level, Node: node})
	w.slots = append(w.slots, slices.Clone(src))
	return w.Store.WriteBucket(level, node, src)
}

// TestWriteBackPathsMatchesGreedyReference: on random stashes and leaf
// sets (duplicates included), over uniform and fat trees, the linear
// placement writes exactly the buckets, in exactly the order and slot
// layout, of the quadratic greedy scan, and leaves exactly its leftovers in
// the stash.
func TestWriteBackPathsMatchesGreedyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	geoms := []*Geometry{
		MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 2}),
		MustGeometry(GeometryConfig{LeafBits: 8, LeafZ: 4}),
		MustGeometry(GeometryConfig{LeafBits: 7, LeafZ: 3, RootZ: 8, Profile: ProfileLinear}),
	}
	for trial := 0; trial < 300; trial++ {
		g := geoms[trial%len(geoms)]
		log := &writeLog{Store: NewMetaStore(g)}
		c, err := NewClient(ClientConfig{Store: log, Rand: rand.New(rand.NewSource(1)), Blocks: g.Leaves()})
		if err != nil {
			t.Fatal(err)
		}
		stash := map[BlockID]Leaf{}
		for n := rng.Intn(400); len(stash) < n; {
			id := BlockID(rng.Intn(1 << 12))
			l := Leaf(rng.Int63n(int64(g.Leaves())))
			stash[id] = l
			if err := c.Stash().Put(id, l, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Churn the slab so vacant slots sit between live ones.
		for id := range stash {
			if rng.Intn(5) == 0 {
				c.Stash().Remove(id)
				delete(stash, id)
			}
		}
		leaves := make([]Leaf, 2+rng.Intn(40))
		for i := range leaves {
			if i > 0 && rng.Intn(6) == 0 {
				leaves[i] = leaves[rng.Intn(i)]
			} else {
				leaves[i] = Leaf(rng.Int63n(int64(g.Leaves())))
			}
		}
		wantRefs, wantPlan := greedyReference(g, stash, leaves)
		if err := c.WriteBackPaths(leaves); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(log.refs, wantRefs) {
			t.Fatalf("trial %d: write order %v, reference %v", trial, log.refs, wantRefs)
		}
		for i, b := range wantRefs {
			got := log.slots[i]
			for k := range got {
				want := DummySlot()
				if k < len(wantPlan[i]) {
					id := wantPlan[i][k]
					want = Slot{ID: id, Leaf: stash[id]}
				}
				if got[k].ID != want.ID || got[k].Leaf != want.Leaf {
					t.Fatalf("trial %d: bucket %v slot %d = (%d,%d), reference (%d,%d)",
						trial, b, k, got[k].ID, got[k].Leaf, want.ID, want.Leaf)
				}
			}
			for _, id := range wantPlan[i] {
				delete(stash, id)
			}
		}
		if c.Stash().Len() != len(stash) {
			t.Fatalf("trial %d: stash holds %d blocks, reference %d", trial, c.Stash().Len(), len(stash))
		}
		for id, l := range stash {
			if got, ok := c.Stash().Leaf(id); !ok || got != l {
				t.Fatalf("trial %d: leftover block %d missing from stash", trial, id)
			}
		}
	}
}
