package shard

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/oram"
)

// Visit is invoked for each block of a bin while it is resident in trusted
// memory; ids are global. Returning non-nil replaces the payload. During
// Run, visit is called concurrently from different shard lanes — never
// concurrently for the same id (a block lives in exactly one shard) — so
// implementations need per-lane scratch or no shared state; NewVisit builds
// one visitor per lane for that purpose.
type Visit func(id uint64, payload []byte) []byte

// NewVisit returns a fresh Visit per shard lane, letting callers keep
// mutable scratch (decode buffers, optimiser state) lane-local during
// concurrent execution. Either may be nil.
type NewVisit func(shard int) Visit

// Session executes a sharded Plan: one core.LAORAM lane per shard, each
// consuming its shard's bins in plan order. Run drives the lanes
// concurrently.
type Session struct {
	e   *Engine
	las []*core.LAORAM
}

// NewSession builds the per-shard LAORAM lanes for plan p.
func (e *Engine) NewSession(p *Plan) (*Session, error) {
	if p == nil {
		return nil, fmt.Errorf("shard: nil plan")
	}
	if p.n != e.n {
		return nil, fmt.Errorf("shard: plan built for %d shards, engine has %d", p.n, e.n)
	}
	s := &Session{e: e, las: make([]*core.LAORAM, e.n)}
	for i := 0; i < e.n; i++ {
		la, err := core.New(core.Config{Base: e.subs[i].Client, Plan: p.plans[i]})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.las[i] = la
	}
	// Re-hint the window's paths as it starts; the store skips duplicate
	// hints for buckets the planner's lead-time hint already made resident.
	e.prefetchPlan(p)
	return s, nil
}

// wrap translates a global-ID visitor to shard i's local-ID space.
func (s *Session) wrap(i int, v Visit) core.Visit {
	if v == nil {
		return nil
	}
	n := s.e.n
	return func(local oram.BlockID, payload []byte) []byte {
		return v(GlobalID(uint64(local), i, n), payload)
	}
}

// Run drives lanes to completion, concurrently. k == 0 steps bin by bin;
// k > 0 executes k bins per batched server round trip (§IV-A's
// per-training-batch fetch within each shard). sel == nil runs every lane;
// otherwise only the lanes sel marks true run and the others' plans stay
// untouched — the re-placement catch-up path, where just the restored
// lanes replay their windows. A selected lane executes exactly as it would
// in a full run (same bin order, same randomness). nv (may be nil) builds
// one visitor per lane.
//
// Every lane checks ctx at each bin (or batch) boundary, so a cancelled
// context drains all shard workers — the fan-out always joins — and
// returns ctx.Err(). The check consumes no randomness: an uncancelled run
// is byte-identical to one without a deadline.
func (s *Session) Run(ctx context.Context, k int, sel []bool, nv NewVisit) error {
	if k < 0 {
		return fmt.Errorf("shard: batch size must be >= 0, got %d", k)
	}
	lane := func(i int) error {
		var v Visit
		if nv != nil {
			v = nv(i)
		}
		var err error
		if k > 0 {
			err = s.las[i].RunBatchedContext(ctx, k, s.wrap(i, v))
		} else {
			err = s.las[i].RunContext(ctx, s.wrap(i, v))
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
	}
	if sel == nil {
		return s.e.fanOut(lane)
	}
	return s.e.fanOutLanes(sel, lane)
}

// Lane exposes shard i's LAORAM executor (stats, manual stepping).
func (s *Session) Lane(i int) *core.LAORAM { return s.las[i] }

// Stats sums the per-lane LAORAM counters (base AccessStats included).
func (s *Session) Stats() core.Stats {
	var out core.Stats
	for _, la := range s.las {
		st := la.Stats()
		out.Accesses += st.Accesses
		out.StashHits += st.StashHits
		out.PathReads += st.PathReads
		out.PathWrites += st.PathWrites
		out.DummyReads += st.DummyReads
		out.Remaps += st.Remaps
		out.Bins += st.Bins
		out.ColdPathReads += st.ColdPathReads
		out.LookaheadRemaps += st.LookaheadRemaps
		out.UniformRemaps += st.UniformRemaps
	}
	return out
}
