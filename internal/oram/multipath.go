package oram

import (
	"cmp"
	"context"
	"fmt"
	"slices"
)

// multiScratch is the reusable state of the multi-path operations. A
// client executes one ReadPaths/WriteBackPaths at a time (single-goroutine
// model), so one scratch set per client suffices and the superblock hot
// path — one bin = one ReadPaths + one WriteBackPaths — allocates nothing
// in steady state.
type multiScratch struct {
	seen  map[BucketRef]bool
	refs  []BucketRef // bucket union (read order or write order)
	bufs  [][]Slot    // batch-transport buffers, grown on demand
	arena [][][]byte  // payload backing re-armed into bufs (blockSize > 0)

	fetch []Leaf // AccessBatch: one fetched leaf per access of a joint fetch

	// Write-back placement (see WriteBackPaths).
	leaves []Leaf        // the distinct leaves, ascending
	at     []int32       // at[j*levels+lvl]: union bucket on leaves[j]'s path at lvl
	rep    []int32       // rep[i]: a leaf index whose path holds bucket i
	cand   [][]placeCand // cand[i]: blocks bound for bucket i, then its placement
}

// placeCand is a stash block awaiting placement: its ID and slab slot.
type placeCand struct {
	id   BlockID
	slot int32
}

func (m *multiScratch) resetRefs() {
	if m.seen == nil {
		m.seen = make(map[BucketRef]bool, 64)
	}
	clear(m.seen)
	m.refs = m.refs[:0]
}

// batchBufs returns n slot buffers with bufs[i] sized to size(i), reusing
// prior capacity. Slots are zeroed and their payloads re-armed from a
// private arena (the same discipline as Client.rearmBucket): stale payload
// pointers from a previous write-back would alias live stash slabs, which
// a store honouring the decrypt-into-capacity contract must never be
// handed, while arena-backed slices let such a store read into recycled
// client memory instead of allocating.
func (m *multiScratch) batchBufs(n, blockSize int, size func(int) int) [][]Slot {
	if cap(m.bufs) < n {
		m.bufs = append(m.bufs[:cap(m.bufs)], make([][]Slot, n-cap(m.bufs))...)
		m.arena = append(m.arena[:cap(m.arena)], make([][][]byte, n-cap(m.arena))...)
	}
	m.bufs = m.bufs[:n]
	m.arena = m.arena[:n]
	for i := 0; i < n; i++ {
		z := size(i)
		if cap(m.bufs[i]) < z {
			m.bufs[i] = make([]Slot, z)
		}
		m.bufs[i] = m.bufs[i][:z]
		clear(m.bufs[i])
		if blockSize > 0 {
			if cap(m.arena[i]) < z {
				m.arena[i] = append(m.arena[i][:cap(m.arena[i])], make([][]byte, z-cap(m.arena[i]))...)
			}
			m.arena[i] = m.arena[i][:z]
			for j := 0; j < z; j++ {
				if m.arena[i][j] == nil {
					m.arena[i][j] = make([]byte, blockSize)
				}
				m.bufs[i][j].Payload = m.arena[i][j]
			}
		}
	}
	return m.bufs
}

// pathUnion collects the deduplicated buckets of a set of paths, level by
// level from the root, preserving the leaves' order within a level. This is
// the canonical bucket order both ReadPaths branches (batched and
// per-bucket) iterate, so results are independent of the transport. The
// returned slice aliases the client's scratch.
func (c *Client) pathUnion(leaves []Leaf) []BucketRef {
	g := c.geom
	m := &c.multi
	m.resetRefs()
	for lvl := 0; lvl < g.Levels(); lvl++ {
		for _, l := range leaves {
			b := BucketRef{Level: lvl, Node: g.NodeAt(l, lvl)}
			if m.seen[b] {
				continue
			}
			m.seen[b] = true
			m.refs = append(m.refs, b)
		}
	}
	return m.refs
}

// ReadPaths fetches the union of buckets across several paths in one
// operation, reading each shared bucket exactly once (paths overlap at
// least at the root, and batched fetches of nearby leaves share long
// prefixes). All real blocks land in the stash. This is the paper's
// batch-granularity fetch: "The GPU then issues read request to all the
// paths associated with the embedding entries in the upcoming training
// batch and caches them locally" (§IV-A). When the store implements
// BatchStore, the whole deduplicated union moves in a single store
// operation — one network frame on a remote store.
func (c *Client) ReadPaths(leaves []Leaf) error {
	switch len(leaves) {
	case 0:
		return nil
	case 1:
		return c.ReadPath(leaves[0])
	}
	g := c.geom
	for _, l := range leaves {
		if !g.ValidLeaf(l) {
			return fmt.Errorf("oram: ReadPaths: invalid leaf %d", l)
		}
	}
	refs := c.pathUnion(leaves)
	moved := 0
	if bs, ok := c.store.(BatchStore); ok && batchWorthwhile(c.store) {
		bufs := c.multi.batchBufs(len(refs), g.BlockSize(), func(i int) int { return g.BucketSize(refs[i].Level) })
		if err := bs.ReadBuckets(refs, bufs); err != nil {
			return fmt.Errorf("oram: ReadPaths: %w", err)
		}
		for _, buf := range bufs {
			n, err := c.ingestBucket(buf)
			if err != nil {
				return err
			}
			moved += n
		}
	} else {
		for _, r := range refs {
			c.rearmBucket(r.Level)
			buf := c.bucketBufs[r.Level]
			if err := c.store.ReadBucket(r.Level, r.Node, buf); err != nil {
				return fmt.Errorf("oram: ReadPaths level %d node %d: %w", r.Level, r.Node, err)
			}
			n, err := c.ingestBucket(buf)
			if err != nil {
				return err
			}
			moved += n
		}
	}
	if c.timer != nil {
		for range leaves {
			c.timer.OnPathRequest()
		}
		if moved > 0 {
			c.timer.OnStashWork(moved)
		}
	}
	return nil
}

// WriteBackPaths writes a set of previously read paths back in one joint
// operation. Paths overlap (every path shares at least the root bucket), so
// writing them back one at a time would let a later path's write-back
// clobber blocks the earlier one just placed in a shared bucket. The joint
// plan writes every bucket in the union exactly once; with a BatchStore the
// whole union ships in a single store operation.
//
// Superblock clients need this whenever a single logical access fetches
// more than one path: LAORAM bins with cold members (§IV-A) and
// AccessBatch's joint fetches.
//
// Placement is the same greedy rule as WriteBackPath, generalised: buckets
// are filled deepest level first, and each takes, in ascending ID order,
// up to its capacity of the not-yet-placed stash blocks whose assigned
// leaf's path passes through it.
func (c *Client) WriteBackPaths(leaves []Leaf) error {
	switch len(leaves) {
	case 0:
		return nil
	case 1:
		return c.WriteBackPath(leaves[0])
	}
	g := c.geom
	for _, l := range leaves {
		if !g.ValidLeaf(l) {
			return fmt.Errorf("oram: WriteBackPaths: invalid leaf %d", l)
		}
	}
	m := &c.multi
	buckets := m.writeUnion(g, leaves)
	m.place(g, c.stash)

	// fill writes bucket i's placement into buf, padding with dummies.
	entries := c.stash.entries
	fill := func(i int, buf []Slot) {
		n := 0
		for _, pc := range m.cand[i] {
			e := &entries[pc.slot]
			buf[n] = Slot{ID: pc.id, Leaf: e.leaf, Payload: e.payload}
			n++
		}
		for ; n < len(buf); n++ {
			buf[n] = DummySlot()
		}
	}
	if bs, ok := c.store.(BatchStore); ok && batchWorthwhile(c.store) {
		bufs := m.batchBufs(len(buckets), 0, func(i int) int { return g.BucketSize(buckets[i].Level) })
		for i := range buckets {
			fill(i, bufs[i])
		}
		if err := bs.WriteBuckets(buckets, bufs); err != nil {
			return fmt.Errorf("oram: WriteBackPaths: %w", err)
		}
	} else {
		for i, b := range buckets {
			buf := c.writeBuf[:g.BucketSize(b.Level)]
			fill(i, buf)
			if err := c.store.WriteBucket(b.Level, b.Node, buf); err != nil {
				return fmt.Errorf("oram: WriteBackPaths level %d node %d: %w", b.Level, b.Node, err)
			}
		}
	}
	moved := 0
	for i := range buckets {
		for _, pc := range m.cand[i] {
			c.stash.Remove(pc.id)
		}
		moved += len(m.cand[i])
	}
	if c.timer != nil {
		for range leaves {
			c.timer.OnPathRequest()
		}
		if moved > 0 {
			c.timer.OnStashWork(moved)
		}
	}
	return nil
}

// writeUnion builds the bucket union of leaves in write order: deepest
// level first, ascending node within a level, shared buckets once. It also
// records, for each distinct leaf j (ascending) and level, the index of the
// union bucket on that leaf's path (m.at), and one leaf through each bucket
// (m.rep). The returned slice aliases the scratch.
func (m *multiScratch) writeUnion(g *Geometry, leaves []Leaf) []BucketRef {
	m.leaves = append(m.leaves[:0], leaves...)
	slices.Sort(m.leaves)
	m.leaves = slices.Compact(m.leaves)
	levels := g.Levels()
	m.at = slices.Grow(m.at[:0], len(m.leaves)*levels)[:len(m.leaves)*levels]
	m.refs, m.rep = m.refs[:0], m.rep[:0]
	for lvl := levels - 1; lvl >= 0; lvl-- {
		for j, l := range m.leaves {
			// Sorted leaves give non-decreasing nodes: a shared bucket
			// is a run of equal nodes.
			node := g.NodeAt(l, lvl)
			if j == 0 || m.refs[len(m.refs)-1].Node != node {
				m.refs = append(m.refs, BucketRef{Level: lvl, Node: node})
				m.rep = append(m.rep, int32(j))
			}
			m.at[j*levels+lvl] = int32(len(m.refs) - 1)
		}
	}
	return m.refs
}

// place computes the greedy placement over the union writeUnion built, in
// one pass over the stash: each block drops into its deepest union bucket
// (the union is closed under ancestors, so that is the deepest level its
// path shares with the nearest leaf in sorted order); buckets are then
// filled deepest level first with their lowest IDs, the overflow bubbling
// to the parent bucket. This is exactly the per-bucket greedy scan — a
// bucket's candidates are the unplaced blocks whose path crosses it — at
// linear cost. Afterwards m.cand[i] lists bucket i's blocks in slot order.
func (m *multiScratch) place(g *Geometry, s *Stash) {
	n := len(m.refs)
	if cap(m.cand) < n {
		m.cand = append(m.cand[:cap(m.cand)], make([][]placeCand, n-cap(m.cand))...)
	}
	m.cand = m.cand[:n]
	for i := range m.cand {
		m.cand[i] = m.cand[i][:0]
	}
	levels := g.Levels()
	for slot := range s.entries {
		e := &s.entries[slot]
		if e.id == DummyID {
			continue // vacant slab slot
		}
		j, _ := slices.BinarySearch(m.leaves, e.leaf)
		best, d := j, -1
		if j < len(m.leaves) {
			d = g.CommonLevel(e.leaf, m.leaves[j])
		}
		if j > 0 {
			if d2 := g.CommonLevel(e.leaf, m.leaves[j-1]); d2 > d {
				best, d = j-1, d2
			}
		}
		b := m.at[best*levels+d]
		m.cand[b] = append(m.cand[b], placeCand{id: e.id, slot: int32(slot)})
	}
	for i, b := range m.refs {
		cand := m.cand[i]
		slices.SortFunc(cand, func(x, y placeCand) int { return cmp.Compare(x.id, y.id) })
		if z := g.BucketSize(b.Level); len(cand) > z {
			if b.Level > 0 {
				// Buckets run deepest level first, so the parent is
				// still to come.
				p := m.at[int(m.rep[i])*levels+b.Level-1]
				m.cand[p] = append(m.cand[p], cand[z:]...)
			}
			m.cand[i] = cand[:z]
		}
	}
}

// JointAccesses is the most accesses AccessBatch serves from one joint
// fetch; a longer batch runs as consecutive joint fetches of this many.
const JointAccesses = 64

// BatchAccess is one access of an AccessBatch.
type BatchAccess struct {
	Op Op
	ID BlockID
	// Data is an OpWrite's payload; the stash copies it.
	Data []byte
	// Out receives an OpRead's payload, copied into Out's capacity (grown
	// only when too small, so nil means a fresh copy); nil under a
	// metadata-only store.
	Out []byte
}

// AccessBatch performs acc in order as joint fetches of at most
// JointAccesses accesses each — the paper's batch-granularity fetch
// (§IV-A) applied to plain PathORAM accesses. A joint fetch is one
// ReadPaths over one leaf per access, the operations served from the stash
// in batch order, every block remapped uniformly, one WriteBackPaths over
// the same leaves and one MaybeEvict: on a BatchStore one store operation
// each way instead of one per path.
//
// Each access contributes exactly one fetched leaf: the block's position,
// or a fresh uniform leaf when the block was never written or is already
// in the stash (including an ID repeated earlier in the same joint fetch).
// The server therefore sees k independent uniform leaves per joint fetch,
// whatever the IDs, their repeats and the stash state; for the same reason
// the StashHits shortcut never applies inside a batch. Results equal those
// of sequential Access calls.
//
// ctx is checked before each joint fetch; a cancelled batch returns
// ctx.Err() with the earlier joint fetches complete. An invalid access
// (ID out of range, read of a never-written block) fails its joint fetch
// before any store traffic.
func (c *Client) AccessBatch(ctx context.Context, acc []BatchAccess) error {
	for len(acc) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := min(len(acc), JointAccesses)
		if err := c.jointAccess(acc[:k]); err != nil {
			return err
		}
		acc = acc[k:]
	}
	return nil
}

// jointAccess is one joint fetch of AccessBatch (len(acc) <= JointAccesses).
func (c *Client) jointAccess(acc []BatchAccess) error {
	// Validate and pick each access's fetched leaf; NoLeaf marks a fresh
	// uniform leaf, drawn only once the whole joint fetch is valid.
	m := &c.multi
	m.fetch = m.fetch[:0]
	var create uint64 // bit i: access i creates its block
	for i := range acc {
		a := &acc[i]
		if uint64(a.ID) >= c.pos.Len() {
			return fmt.Errorf("oram: block %d out of range (have %d blocks)", a.ID, c.pos.Len())
		}
		if a.Op != OpRead && a.Op != OpWrite {
			return fmt.Errorf("oram: unknown op %v", a.Op)
		}
		repeat := false
		for j := range acc[:i] {
			if acc[j].ID == a.ID {
				repeat = true
				break
			}
		}
		leaf := c.pos.Get(a.ID)
		switch {
		case leaf == NoLeaf && !repeat:
			if a.Op != OpWrite {
				return fmt.Errorf("oram: read of unwritten block %d", a.ID)
			}
			create |= 1 << i
		case repeat || c.stash.Contains(a.ID):
			leaf = NoLeaf
		}
		m.fetch = append(m.fetch, leaf)
	}
	for i, l := range m.fetch {
		if l == NoLeaf {
			m.fetch[i] = c.RandomLeaf()
		}
	}
	if err := c.ReadPaths(m.fetch); err != nil {
		return err
	}
	// Serve in batch order, remapping every block.
	for i := range acc {
		a := &acc[i]
		newLeaf := c.RandomLeaf()
		c.stats.Accesses++
		c.stats.Remaps++
		c.stats.PathReads++
		if create&(1<<i) != 0 {
			c.pos.Set(a.ID, newLeaf)
			if err := c.stash.Put(a.ID, newLeaf, a.Data); err != nil {
				return err
			}
			continue
		}
		if !c.stash.SetLeaf(a.ID, newLeaf) {
			return fmt.Errorf("oram: block %d not found on its assigned path (tree corrupt)", a.ID)
		}
		c.pos.Set(a.ID, newLeaf)
		out, err := c.serveFromStash(a.Op, a.ID, a.Data, a.Out)
		if err != nil {
			return err
		}
		if a.Op == OpRead {
			a.Out = out
		}
	}
	if err := c.WriteBackPaths(m.fetch); err != nil {
		return err
	}
	c.stats.PathWrites += uint64(len(acc))
	_, err := c.MaybeEvict()
	return err
}
