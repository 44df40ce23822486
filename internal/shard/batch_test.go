package shard

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/oram"
	"repro/internal/remote"
	"repro/internal/stats"
	"repro/internal/trace"
)

// storeOp is one call that reached the backing store, with the buckets it
// touched — what a server observes.
type storeOp struct {
	write bool
	refs  []oram.BucketRef
}

// recStore logs every call to the store beneath the client. It forwards
// PathStore and BatchStore calls, and (lacking a BatchNative probe) is
// presumed to batch natively, so a joint fetch reaches it as one call.
type recStore struct {
	oram.Store
	log []storeOp
}

func (r *recStore) rec(write bool, refs ...oram.BucketRef) {
	r.log = append(r.log, storeOp{write: write, refs: slices.Clone(refs)})
}

func (r *recStore) pathRefs(leaf oram.Leaf) []oram.BucketRef {
	g := r.Geometry()
	refs := make([]oram.BucketRef, g.Levels())
	for lvl := range refs {
		refs[lvl] = oram.BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)}
	}
	return refs
}

func (r *recStore) ReadBucket(level int, node uint64, dst []oram.Slot) error {
	r.rec(false, oram.BucketRef{Level: level, Node: node})
	return r.Store.ReadBucket(level, node, dst)
}

func (r *recStore) WriteBucket(level int, node uint64, src []oram.Slot) error {
	r.rec(true, oram.BucketRef{Level: level, Node: node})
	return r.Store.WriteBucket(level, node, src)
}

func (r *recStore) ReadPath(leaf oram.Leaf, dst [][]oram.Slot) error {
	r.rec(false, r.pathRefs(leaf)...)
	return r.Store.(oram.PathStore).ReadPath(leaf, dst)
}

func (r *recStore) WritePath(leaf oram.Leaf, src [][]oram.Slot) error {
	r.rec(true, r.pathRefs(leaf)...)
	return r.Store.(oram.PathStore).WritePath(leaf, src)
}

func (r *recStore) ReadBuckets(refs []oram.BucketRef, dst [][]oram.Slot) error {
	r.rec(false, refs...)
	return r.Store.(oram.BatchStore).ReadBuckets(refs, dst)
}

func (r *recStore) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	r.rec(true, refs...)
	return r.Store.(oram.BatchStore).WriteBuckets(refs, src)
}

// pathCounter counts the client's path requests.
type pathCounter struct{ n int }

func (p *pathCounter) OnPathRequest()  { p.n++ }
func (p *pathCounter) OnStashWork(int) {}

// TestAccessBatchObliviousAtStore pins the one-leaf-per-access rule of the
// joint fetch at the store boundary, over a local store and over a remote
// loopback server. A lane of 32 copies of one ID, of 32 distinct IDs and
// of 32 never-written IDs each reaches the store as exactly one joint
// read and one joint write of the same bucket union, closed under
// ancestors, with 32 path requests each way; and over ~2000 batches the
// fetched leaves and the union sizes of the three lane kinds are
// indistinguishable (chi-square two-sample, p > 0.01).
func TestAccessBatchObliviousAtStore(t *testing.T) {
	const entries = 1 << 15
	const loaded = 1 << 12
	const lane = 32
	const blockSize = 8
	batches := 2100
	if testing.Short() {
		batches = 600
	}
	g, err := oram.NewGeometry(oram.GeometryConfig{LeafBits: oram.LeafBitsFor(entries), LeafZ: 4, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]func(t *testing.T) oram.Store{
		"local": func(t *testing.T) oram.Store {
			ps, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			return ps
		},
		"remote": func(t *testing.T) oram.Store {
			ps, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := remote.NewSharded([]oram.Store{ps}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c, err := remote.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			st, err := c.Store(0)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
	for _, name := range []string{"local", "remote"} {
		t.Run(name, func(t *testing.T) {
			rs := &recStore{Store: backends[name](t)}
			timer := &pathCounter{}
			e, err := New(Config{Shards: 1, Entries: entries, Seed: 5, Build: func(_ int, per uint64, sd int64) (Sub, error) {
				c, err := oram.NewClient(oram.ClientConfig{
					Store: rs, Rand: trace.NewRNG(sd), Evict: oram.PaperEvict,
					Timer: timer, StashHits: true, Blocks: per,
				})
				return Sub{Client: c}, err
			}})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Load(loaded, nil); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			fresh := uint64(loaded) // next never-written ID
			kinds := []string{"one ID", "distinct IDs", "never-written IDs"}
			leafHist := make([]*stats.Histogram, len(kinds))
			unions := make([][]int, len(kinds))
			for k := range kinds {
				leafHist[k] = stats.NewHistogram(64)
			}
			ids := make([]uint64, lane)
			data := make([][]byte, lane)
			for i := range data {
				data[i] = make([]byte, blockSize)
			}
			for b := 0; b < batches; b++ {
				k := b % len(kinds)
				switch k {
				case 0:
					id := uint64(rng.Intn(loaded))
					for i := range ids {
						ids[i] = id
					}
				case 1:
					for i, id := range rng.Perm(loaded)[:lane] {
						ids[i] = uint64(id)
					}
				case 2:
					if fresh+lane > entries {
						t.Fatalf("ran out of never-written IDs after %d batches", b)
					}
					for i := range ids {
						ids[i], fresh = fresh, fresh+1
					}
				}
				rs.log, timer.n = rs.log[:0], 0
				if k == 2 {
					err = e.WriteBatch(ids, data)
				} else {
					_, err = e.ReadBatch(ids)
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(rs.log) != 2 || rs.log[0].write || !rs.log[1].write {
					t.Fatalf("batch %d (%s): %d store calls, want one joint read then one joint write", b, kinds[k], len(rs.log))
				}
				if timer.n != 2*lane {
					t.Fatalf("batch %d (%s): %d path requests, want %d", b, kinds[k], timer.n, 2*lane)
				}
				read, write := rs.log[0].refs, rs.log[1].refs
				var leaves []oram.Leaf
				for _, r := range read {
					if r.Level == g.LeafBits() {
						leaves = append(leaves, oram.Leaf(r.Node))
						leafHist[k].Add(r.Node >> (g.LeafBits() - 6))
					}
				}
				if want := unionOf(g, leaves); !sameRefs(read, want) || !sameRefs(write, want) {
					t.Fatalf("batch %d (%s): read %d / wrote %d buckets, want the %d-bucket union of %d leaves",
						b, kinds[k], len(read), len(write), len(want), len(leaves))
				}
				unions[k] = append(unions[k], len(read))
			}
			unionHist := quantileHists(unions, 10)
			for _, pair := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
				a, b := pair[0], pair[1]
				for what, h := range map[string][]*stats.Histogram{"leaf": leafHist, "union size": unionHist} {
					_, _, p, err := stats.ChiSquareTwoSample(h[a], h[b])
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("%s %s vs %s: p = %.3f", what, kinds[a], kinds[b], p)
					if p <= 0.01 {
						t.Errorf("%s histograms of %s and %s lanes differ: p = %.4f", what, kinds[a], kinds[b], p)
					}
				}
			}
		})
	}
}

// unionOf is the set of buckets on the paths to leaves.
func unionOf(g *oram.Geometry, leaves []oram.Leaf) []oram.BucketRef {
	seen := map[oram.BucketRef]bool{}
	var out []oram.BucketRef
	for _, l := range leaves {
		for lvl := 0; lvl < g.Levels(); lvl++ {
			r := oram.BucketRef{Level: lvl, Node: g.NodeAt(l, lvl)}
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// sameRefs reports whether a and b hold the same buckets, each once.
func sameRefs(a, b []oram.BucketRef) bool {
	order := func(x, y oram.BucketRef) int {
		return cmp.Or(cmp.Compare(x.Level, y.Level), cmp.Compare(x.Node, y.Node))
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, order)
	slices.SortFunc(b, order)
	return slices.Equal(a, b) && len(slices.Compact(a)) == len(b)
}

// quantileHists bins every sample set into n bins cut at the quantiles of
// all samples pooled, so each bin expects a fair share of every set.
func quantileHists(sets [][]int, n int) []*stats.Histogram {
	var all []int
	for _, s := range sets {
		all = append(all, s...)
	}
	slices.Sort(all)
	cuts := make([]int, n-1)
	for i := range cuts {
		cuts[i] = all[(i+1)*len(all)/n]
	}
	out := make([]*stats.Histogram, len(sets))
	for k, s := range sets {
		out[k] = stats.NewHistogram(n)
		for _, v := range s {
			bin, _ := slices.BinarySearch(cuts, v+1)
			out[k].Add(uint64(bin))
		}
	}
	return out
}
