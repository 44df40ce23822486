// Package superblock implements LAORAM's look-ahead preprocessor (§IV-B):
// the dataset scan that bins upcoming accesses into superblocks and
// assigns each bin a uniformly random path, plus the Cursor the §IV-A
// executor walks the plan with.
//
// A superblock is a set of data blocks assigned to the same ORAM path, so
// one path fetch serves the whole set. LAORAM's insight is that training
// makes the future access stream known, so superblocks can be formed from
// blocks that *will* be accessed together rather than blocks that *were*.
package superblock

import (
	"fmt"
	"math/rand"

	"repro/internal/oram"
)

// Bin is one superblock produced by the preprocessor: the next S unique
// embedding indices of the upcoming training stream, plus the uniformly
// random path the whole bin is assigned (§IV-B3).
type Bin struct {
	// Index is the bin's position in plan order.
	Index int
	// Blocks are the member block IDs, unique, in first-appearance order.
	Blocks []oram.BlockID
	// Leaf is the path assigned to the bin.
	Leaf oram.Leaf
}

// PlanConfig configures the preprocessing scan.
type PlanConfig struct {
	// S is the superblock size: the number of unique indices per bin
	// (the paper evaluates S ∈ {2, 4, 8}).
	S int
	// Leaves is the number of ORAM paths to draw bin paths from.
	Leaves uint64
	// Rand draws the per-bin uniform paths. Required.
	Rand *rand.Rand
}

// Plan is the preprocessor's output: the ordered superblock bins plus the
// (superblock → future path) metadata the trainer GPU consumes to assign
// predetermined future paths to blocks when it accesses them.
type Plan struct {
	s      int
	bins   []Bin
	queues map[oram.BlockID][]int32 // orderly bin indices per block
}

// NewPlan runs the two preprocessing steps of §IV-B on the upcoming access
// stream: the dataset scan (binning the next S unique indices together,
// skipping indices already in the open bin) and superblock path generation
// (one uniform path per bin). The final bin may be short.
func NewPlan(stream []uint64, cfg PlanConfig) (*Plan, error) {
	if cfg.S < 1 {
		return nil, fmt.Errorf("superblock: S must be >= 1, got %d", cfg.S)
	}
	if cfg.Leaves == 0 {
		return nil, fmt.Errorf("superblock: Leaves must be > 0")
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("superblock: Rand is required")
	}
	p := &Plan{
		s:      cfg.S,
		queues: make(map[oram.BlockID][]int32),
	}
	var cur []oram.BlockID
	inCur := make(map[oram.BlockID]bool, cfg.S)
	flush := func() {
		if len(cur) == 0 {
			return
		}
		idx := len(p.bins)
		leaf := oram.Leaf(cfg.Rand.Int63n(int64(cfg.Leaves)))
		p.bins = append(p.bins, Bin{Index: idx, Blocks: cur, Leaf: leaf})
		for _, id := range cur {
			p.queues[id] = append(p.queues[id], int32(idx))
		}
		cur = nil
		for k := range inCur {
			delete(inCur, k)
		}
	}
	for _, a := range stream {
		id := oram.BlockID(a)
		if inCur[id] {
			continue // §IV-B: a bin holds unique indices
		}
		cur = append(cur, id)
		inCur[id] = true
		if len(cur) == cfg.S {
			flush()
		}
	}
	flush()
	return p, nil
}

// S returns the configured superblock size.
func (p *Plan) S() int { return p.s }

// Len returns the number of bins.
func (p *Plan) Len() int { return len(p.bins) }

// Bin returns bin i.
func (p *Plan) Bin(i int) *Bin { return &p.bins[i] }

// BinsOf returns the ordered bin indices in which id appears (shared slice;
// do not mutate).
func (p *Plan) BinsOf(id oram.BlockID) []int32 { return p.queues[id] }

// FirstLeaf returns the path of the first bin containing id, or NoLeaf if
// the block never appears in the plan. Loading the ORAM with these leaves
// ("pre-placement") is equivalent to having run a converged warm-up epoch:
// each block already sits on the path of its first superblock.
func (p *Plan) FirstLeaf(id oram.BlockID) oram.Leaf {
	q := p.queues[id]
	if len(q) == 0 {
		return oram.NoLeaf
	}
	return p.bins[q[0]].Leaf
}

// UniqueBlocks returns the number of distinct blocks in the plan.
func (p *Plan) UniqueBlocks() int { return len(p.queues) }

// MetadataBytes estimates the size of the (superblock, future path)
// metadata shipped from the preprocessor to the trainer GPU (§IV-B3):
// 8 bytes per member ID plus 8 bytes per bin path.
func (p *Plan) MetadataBytes() int64 {
	var n int64
	for i := range p.bins {
		n += 8 + 8*int64(len(p.bins[i].Blocks))
	}
	return n
}

// Cursor tracks plan consumption for the trainer: for every block, how many
// of its bins have already been executed, so the block's *next* path is
// always the path of its next future bin (§IV-A: "the path of all four data
// blocks is changed independently based on their future locality").
type Cursor struct {
	plan *Plan
	pos  map[oram.BlockID]int
	next int
	// leafScratch backs Advance's nextLeaf result, reused across bins so
	// the steady-state executor loop allocates nothing.
	leafScratch []oram.Leaf
}

// NewCursor starts consumption at bin 0.
func NewCursor(p *Plan) *Cursor {
	return &Cursor{plan: p, pos: make(map[oram.BlockID]int, len(p.queues))}
}

// NextBin returns the next unexecuted bin, or nil when the plan is done.
func (c *Cursor) NextBin() *Bin {
	if c.next >= c.plan.Len() {
		return nil
	}
	return c.plan.Bin(c.next)
}

// PeekBin returns the bin offset positions after the next unexecuted one
// (PeekBin(0) == NextBin) without consuming anything, or nil past the plan
// end. Batched executors use it to gather several bins' paths in one
// fetch.
func (c *Cursor) PeekBin(offset int) *Bin {
	i := c.next + offset
	if offset < 0 || i >= c.plan.Len() {
		return nil
	}
	return c.plan.Bin(i)
}

// Done reports whether all bins were executed.
func (c *Cursor) Done() bool { return c.next >= c.plan.Len() }

// Advance consumes the current bin and returns, for every member, the leaf
// the block must be remapped to: the path of its next future bin, or
// (nextLeaf=NoLeaf) if the block does not appear again within the plan's
// horizon — the caller then draws a uniform leaf, preserving §VI
// obliviousness.
//
// nextLeaf aliases the cursor's reusable scratch: it is valid until the
// next Advance call, which every executor (consume one bin fully, then
// move on) satisfies by construction.
func (c *Cursor) Advance() (bin *Bin, nextLeaf []oram.Leaf, err error) {
	if c.next >= c.plan.Len() {
		return nil, nil, fmt.Errorf("superblock: plan exhausted")
	}
	bin = c.plan.Bin(c.next)
	if cap(c.leafScratch) < len(bin.Blocks) {
		c.leafScratch = make([]oram.Leaf, len(bin.Blocks))
	}
	c.leafScratch = c.leafScratch[:len(bin.Blocks)]
	nextLeaf = c.leafScratch
	for i, id := range bin.Blocks {
		q := c.plan.queues[id]
		k := c.pos[id]
		if k >= len(q) || q[k] != int32(bin.Index) {
			return nil, nil, fmt.Errorf("superblock: cursor desync for block %d at bin %d", id, bin.Index)
		}
		c.pos[id] = k + 1
		if k+1 < len(q) {
			nextLeaf[i] = c.plan.bins[q[k+1]].Leaf
		} else {
			nextLeaf[i] = oram.NoLeaf
		}
	}
	c.next++
	return bin, nextLeaf, nil
}
