package laoram

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/remote"
	"repro/internal/shard"
)

// TrainOptions configures one streaming training run — the v2 API that
// subsumes the Preprocess → LoadForPlan → NewSession → Run/RunBatched
// dance of the one-shot flow. Only Source is required.
type TrainOptions struct {
	// Source streams the upcoming embedding indices in training order
	// (FromSlice, FromTrace, FromChannel, or any custom IndexSource).
	Source IndexSource
	// Superblock is the §IV-B superblock size S (default 4; the paper
	// evaluates S ∈ {2, 4, 8}).
	Superblock int
	// Window is the look-ahead horizon: how many upcoming accesses each
	// planning window scans. 0 plans the entire stream as one window —
	// byte-identical to the one-shot Preprocess/Session flow under the
	// same seed. Smaller windows bound planner memory and latency but
	// degrade toward PathORAM as blocks leave the horizon (the
	// abl-window ablation). A positive Window must be >= Superblock.
	Window int
	// Depth is how many preprocessed windows may queue ahead of the
	// trainer (default 2 — double-buffered: window k+1 is planned while
	// window k executes, the paper's §VIII-A overlap).
	Depth int
	// BatchBins > 0 executes each window in batched server round trips
	// of that many superblock bins (§IV-A's per-training-batch fetch);
	// 0 steps bin by bin.
	BatchBins int
	// Visit is the per-block training callback (see type Visit for the
	// concurrency contract under Shards > 1). Mutually exclusive with
	// PerLane.
	Visit Visit
	// PerLane builds one visitor per shard lane, letting trainers keep
	// scratch buffers and optimiser state lane-local during concurrent
	// execution. Mutually exclusive with Visit.
	PerLane func(lane int) Visit
	// PrePlace bulk-loads the table before the first window executes,
	// pre-placing every block of window 0 on its first superblock's path
	// (the converged steady state of §IV-B — what LoadForPlan does in
	// the one-shot flow), then zeroes the activity counters so Stats
	// describe the training run only (the LoadForPlan → ResetStats
	// convention). When false, the instance must already be loaded
	// (Load or a previous run).
	PrePlace bool
	// Payload initialises rows during the PrePlace load; nil loads
	// zero/simulated content. Requires PrePlace.
	Payload func(id uint64) []byte
	// Sequential disables the plan/execute overlap (every window is
	// planned before the first executes). Identical work and results;
	// exists as the measurement baseline for the pipeline experiment.
	Sequential bool
	// Recovery, when non-nil, makes Train self-healing: the run
	// checkpoints the whole system (client state + every node's shard
	// trees, via the checkpoint coordinator RPC) at window boundaries,
	// and on a node failure (remote.ErrNodeDown) restores all nodes and
	// client state from the last boundary, rewinds the Source, and
	// re-runs — no caller-side recovery code. Requires a rewindable
	// Source (RewindSource: FromSlice/FromTrace qualify, FromChannel does
	// not) and a checkpointable instance (no RecursivePosMap/Verify).
	// Something outside the run must bring the dead node back on its old
	// address (a process supervisor; internal/chaos.Node.Supervise in
	// tests) — Train waits for it within the restart budget. The
	// recovered run finishes byte-identical to one that never failed
	// (DESIGN.md invariant #12).
	Recovery *Recovery
}

// Recovery tunes the self-healing behaviour of TrainOptions.Recovery.
// The zero value is usable: checkpoint every window, 3 restarts, 50ms
// backoff.
type Recovery struct {
	// CheckpointEvery checkpoints at every window boundary whose absolute
	// index is a multiple of it (default 1 — every boundary). Larger
	// values trade checkpoint overhead against a longer replay after a
	// failure.
	CheckpointEvery int
	// MaxRestarts bounds how many recoveries (plus failed restore
	// attempts while waiting for a node to come back) one run will
	// tolerate before giving up with the underlying error (default 3).
	MaxRestarts int
	// Backoff is the pause before each restore attempt, giving the node's
	// supervisor time to bring it back (default 50ms). Each restore
	// attempt then also waits up to Options.RetryElapsed inside the
	// reconnecting client.
	Backoff time.Duration
	// Replace switches remote recovery from rollback to re-placement: when
	// a node fails, its shards are repointed onto the surviving nodes,
	// restored individually from the last checkpoint, and only those
	// lanes replay the windows since the boundary — healthy lanes keep
	// their live state and never rewind. This degrades gracefully: when
	// re-placement is impossible (a single-node instance, failure outside
	// a window, survivors failing too) the run falls back to the full
	// coordinated rollback above, which still tolerates the repointed
	// placement. Without Replace the dead node must come back on its old
	// address; with it, the node is abandoned and the cluster shrinks.
	Replace bool
}

// TrainStats summarises a streaming training run.
type TrainStats struct {
	// Windows is the number of look-ahead windows planned and executed.
	Windows int
	// Accesses is the number of stream indices covered by fully executed
	// windows. After a cancelled run the planner may have consumed up to
	// (Depth+1)·Window further indices from the Source that never
	// trained; reconcile against the Source itself if exact feed
	// accounting matters.
	Accesses uint64
	// Session aggregates the LAORAM session counters (§IV) across all
	// windows and shard lanes.
	Session SessionStats
	// PlanTime is total wall time spent in the planning stage. It
	// overlaps TrainTime (unless Sequential) — the §VIII-A claim is that
	// it hides behind training almost entirely.
	PlanTime time.Duration
	// TrainTime is total wall time spent executing windows (ORAM work).
	TrainTime time.Duration
	// TrainerStalled is how long execution waited on the plan queue —
	// near zero when preprocessing keeps ahead.
	TrainerStalled time.Duration
	// TrainerStalls counts the window fetches that found the plan queue
	// empty: the queue-miss count behind TrainerStalled. The pipeline
	// experiment previously inferred stalling externally from wall-clock
	// deltas; these are the first-class counters.
	TrainerStalls int
	// PlannerStalled is how long the planning stage was blocked handing
	// finished windows to the full plan queue — backpressure on the
	// cheap stage, the healthy §VIII-A regime.
	PlannerStalled time.Duration
	// PlanQueuePeak and PlanQueueMean summarise the plan-queue depth each
	// window fetch observed (bounded by TrainOptions.Depth): a mean near
	// Depth means planning stayed ahead; near zero, the trainer was
	// starved.
	PlanQueuePeak int
	PlanQueueMean float64
	// CheckpointTime is total wall time spent taking window-boundary
	// checkpoints (zero without TrainOptions.Recovery).
	CheckpointTime time.Duration
	// WallTime is the elapsed time of the run (excluding the PrePlace
	// bulk load), summed across recovery attempts.
	WallTime time.Duration
	// Recoveries counts completed automated recoveries (restore + rewind
	// + resume) under TrainOptions.Recovery.
	Recoveries int
	// Replacements counts the recoveries that re-placed the dead node's
	// shards onto survivors instead of rolling the whole run back
	// (Recovery.Replace); Recoveries includes them.
	Replacements int
	// RepairTime is the wall time spent repairing failures: restoring
	// checkpoints (plus, for re-placements, repointing and replaying the
	// dead lanes' windows). The MTTR numerator of the elastic benchmark.
	RepairTime time.Duration
	// RewoundAccesses counts work from fully executed windows that was
	// discarded by recovery and trained again: for a rollback, every
	// stream index of the discarded windows; for a re-placement
	// (Recovery.Replace), only the dead lanes' re-executed accesses —
	// healthy lanes never rewind, which is why a replacement's count is a
	// fraction of the rollback's on the same fault. Partially executed
	// windows never entered Accesses, so they are not counted here either:
	// Windows/Accesses/Session always describe the surviving
	// (byte-identical) run.
	RewoundAccesses uint64
}

// Trainer is the pipelined training facade: an incremental planner
// (internal/shard.Planner) scanning the Source window by window on a
// bounded queue, and a sharded executor running each window while the next
// is being planned. Build one with NewTrainer, run it with Train; the
// one-call form is ORAM.Train.
type Trainer struct {
	db   *ORAM
	opts TrainOptions
	ran  bool
}

// NewTrainer validates opts against the instance and returns a Trainer.
func (o *ORAM) NewTrainer(opts TrainOptions) (*Trainer, error) {
	if opts.Source == nil {
		return nil, fmt.Errorf("laoram: TrainOptions.Source is required")
	}
	if opts.Visit != nil && opts.PerLane != nil {
		return nil, fmt.Errorf("laoram: TrainOptions.Visit and PerLane are mutually exclusive")
	}
	if opts.Recovery != nil {
		if rec := opts.Recovery; rec.CheckpointEvery < 0 || rec.MaxRestarts < 0 || rec.Backoff < 0 {
			return nil, fmt.Errorf("laoram: TrainOptions.Recovery fields must be >= 0")
		}
		if _, ok := opts.Source.(RewindSource); !ok {
			return nil, fmt.Errorf("laoram: TrainOptions.Recovery requires a rewindable Source (laoram.RewindSource — FromSlice or FromTrace; a %T cannot replay past indices)", opts.Source)
		}
		if err := o.checkpointable(); err != nil {
			return nil, err
		}
	}
	return &Trainer{db: o, opts: opts}, nil
}

// Train runs the pipeline to completion (or until ctx is cancelled, in
// which case it returns ctx.Err() after the planner goroutine and every
// shard worker have drained). Cancelling a run over RemoteAddrs also closes
// the server connection — the only way to unblock a request stalled on a
// dead network — so the instance is not usable after a cancelled remote
// run. A Trainer is single-use: run it once.
func (t *Trainer) Train(ctx context.Context) (*TrainStats, error) {
	if t.ran {
		// The Source was (partially) consumed by the first run; a silent
		// zero-window "success" here would mask that.
		return nil, fmt.Errorf("laoram: Trainer already ran (build a new Trainer with a fresh Source)")
	}
	t.ran = true
	o := t.db
	opts := t.opts
	cfg := batch.TrainConfig{
		S:          opts.Superblock,
		Window:     opts.Window,
		Depth:      opts.Depth,
		BatchBins:  opts.BatchBins,
		PrePlace:   opts.PrePlace,
		Payload:    opts.Payload,
		Sequential: opts.Sequential,
	}
	switch {
	case opts.PerLane != nil:
		cfg.NewVisit = func(lane int) shard.Visit { return wrapVisit(opts.PerLane(lane)) }
	case opts.Visit != nil:
		cfg.NewVisit = fanVisit(opts.Visit)
	}

	// A remote request stalled on the network cannot observe ctx; closing
	// the connections is the lever that unblocks it (every in-flight call
	// on every node then fails with a connection error, which Train maps
	// back to ctx.Err()).
	if o.remote() && ctx.Done() != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				// Snapshot without clearing o.remotes: a concurrent or
				// later ORAM.Close must not race on the slice, and a
				// migration may be appending to it (Client.Close is
				// idempotent).
				for _, rc := range o.remoteList() {
					rc.Close()
				}
			case <-stop:
			}
		}()
	}

	if opts.Recovery != nil {
		return t.trainRecover(ctx, cfg)
	}
	st, err := batch.Train(ctx, o.eng, opts.Source, cfg)
	out := &TrainStats{PlanQueueMean: st.QueueMean}
	out.setIdentity(runAgg{}.plus(st))
	out.addTimings(st)
	if err != nil {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		return out, err
	}
	return out, nil
}

// runAgg are the identity counters of a (partial) run: the quantities
// that must end up byte-identical to an unfaulted run's. Recovery tracks
// them per checkpoint boundary so a rollback discards exactly the doomed
// windows' contribution; timing counters, by contrast, accumulate across
// every attempt (the time was really spent).
type runAgg struct {
	windows  int
	accesses uint64
	session  SessionStats
}

// plus returns the aggregate extended by one batch run's counters.
func (a runAgg) plus(st batch.TrainStats) runAgg {
	return runAgg{
		windows:  a.windows + st.Windows,
		accesses: a.accesses + st.Accesses,
		session: SessionStats{
			Bins:            a.session.Bins + st.Bins,
			ColdPathReads:   a.session.ColdPathReads + st.ColdPathReads,
			LookaheadRemaps: a.session.LookaheadRemaps + st.LookaheadRemaps,
			UniformRemaps:   a.session.UniformRemaps + st.UniformRemaps,
		},
	}
}

func (out *TrainStats) setIdentity(a runAgg) {
	out.Windows = a.windows
	out.Accesses = a.accesses
	out.Session = a.session
}

func (out *TrainStats) addTimings(st batch.TrainStats) {
	out.PlanTime += st.PlanTime
	out.TrainTime += st.TrainTime
	out.TrainerStalled += st.Stalled
	out.TrainerStalls += st.TrainerStalls
	out.PlannerStalled += st.PlannerStalled
	out.CheckpointTime += st.CheckpointTime
	if st.QueuePeak > out.PlanQueuePeak {
		out.PlanQueuePeak = st.QueuePeak
	}
	out.WallTime += st.Wall
}

// trainRecover runs the self-healing loop: batch.Train attempts separated
// by coordinated rollbacks. Each attempt checkpoints at window boundaries
// through cfg.Checkpoint; on a node failure the last checkpoint is
// restored into every node and the client, the source rewound to the
// boundary's offset, and the next attempt resumes planning at the
// boundary's absolute window index — so the finished run is byte-identical
// to one that never failed (DESIGN.md invariant #12).
func (t *Trainer) trainRecover(ctx context.Context, cfg batch.TrainConfig) (*TrainStats, error) {
	o := t.db
	rec := *t.opts.Recovery
	if rec.CheckpointEvery == 0 {
		rec.CheckpointEvery = 1
	}
	if rec.MaxRestarts == 0 {
		rec.MaxRestarts = 3
	}
	if rec.Backoff == 0 {
		rec.Backoff = 50 * time.Millisecond
	}
	src := t.opts.Source.(RewindSource) // validated by NewTrainer

	out := &TrainStats{}
	var (
		base    runAgg      // identity counters at the boundary this attempt resumed from
		basePos = src.Pos() // absolute source offset of that boundary
		lastCk  []byte      // newest boundary's checkpoint (nil until the first one commits)
		ckAgg   runAgg      // identity counters at that boundary
		ckPos   uint64      // source offset at that boundary
		ckWin   int         // absolute window index of that boundary
		budget  = rec.MaxRestarts
		meanNum float64 // windows-weighted PlanQueueMean accumulator
		meanDen int
	)
	var ckBuf bytes.Buffer
	cfg.CheckpointEvery = rec.CheckpointEvery
	cfg.Checkpoint = func(win int, sofar batch.TrainStats) error {
		ckBuf.Reset()
		if err := o.SaveState(&ckBuf); err != nil {
			return err
		}
		// Commit the boundary only after the whole epoch-stamped set
		// (client state + every node's trees) saved: a SaveState that died
		// half-way leaves the previous boundary in force.
		lastCk = append(lastCk[:0], ckBuf.Bytes()...)
		ckWin = win
		ckPos = basePos + sofar.Accesses
		ckAgg = base.plus(sofar)
		return nil
	}

	finish := func(cur runAgg) {
		out.setIdentity(cur)
		if meanDen > 0 {
			out.PlanQueueMean = meanNum / float64(meanDen)
		}
	}
	for {
		st, err := batch.Train(ctx, o.eng, src, cfg)
		out.addTimings(st)
		meanNum += st.QueueMean * float64(st.Windows)
		meanDen += st.Windows
		cur := base.plus(st)
		if err == nil {
			finish(cur)
			return out, nil
		}
		// A cancelled run's watcher closes the node clients, which
		// surfaces as ErrNodeDown too — the context verdict comes first.
		if ctx.Err() != nil {
			finish(cur)
			return out, ctx.Err()
		}
		nd, ok := remote.AsNodeDown(err)
		if !ok {
			finish(cur)
			return out, err
		}
		finish(cur)
		if lastCk == nil {
			return out, fmt.Errorf("laoram: node failure before the first checkpoint boundary committed: %w", err)
		}
		if budget <= 0 {
			return out, fmt.Errorf("laoram: recovery restart budget (%d) exhausted: %w", rec.MaxRestarts, err)
		}
		budget--

		if rec.Replace {
			repairStart := time.Now()
			rp, rerr := t.tryReplace(ctx, cfg, st, nd, src, lastCk, ckAgg, ckPos, ckWin, cur)
			out.RepairTime += time.Since(repairStart)
			if rerr == nil {
				// Resume after window W: only the dead lanes replayed, the
				// survivors' state never moved, and no committed checkpoint
				// was discarded (the epoch kept advancing) — so the next
				// boundary checkpoint is taken, not skipped.
				base = rp.base
				basePos = rp.pos
				cfg.StartWindow = rp.win
				cfg.SkipStartCheckpoint = false
				cfg.PrePlace = false
				cfg.Payload = nil
				out.RewoundAccesses += rp.replayed
				out.Recoveries++
				out.Replacements++
				continue
			}
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			// Rollback-free degradation failed (failure outside a window,
			// no survivor, survivor error mid-repair) — degrade to the full
			// rollback below. A partially repointed placement is fine: the
			// full restore flows through the live placement table, so
			// already-moved shards restore onto their new homes.
		}

		out.RewoundAccesses += cur.accesses - ckAgg.accesses

		// Coordinated rollback: restore every node's shard trees and the
		// client state from the boundary's checkpoint set. The dead node's
		// supervisor brings it back on its old address (unless every one of
		// its shards was already repointed elsewhere); until restore
		// succeeds, LoadState fails with ErrNodeDown and we retry within
		// the budget.
		repairStart := time.Now()
		for {
			if err := sleepCtx(ctx, rec.Backoff); err != nil {
				return out, err
			}
			lerr := o.LoadState(bytes.NewReader(lastCk))
			if lerr == nil {
				break
			}
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			if _, ok := remote.AsNodeDown(lerr); !ok {
				return out, fmt.Errorf("laoram: recovery restore: %w", lerr)
			}
			if budget <= 0 {
				return out, fmt.Errorf("laoram: recovery restart budget (%d) exhausted waiting for restore: %w", rec.MaxRestarts, lerr)
			}
			budget--
		}
		out.RepairTime += time.Since(repairStart)
		if err := src.Rewind(ckPos); err != nil {
			return out, fmt.Errorf("laoram: recovery rewind: %w", err)
		}
		// Resume from the boundary: planning restarts at its absolute
		// window index (keeping plan seeds identical), the boundary's own
		// checkpoint is not retaken (epoch parity with an unfaulted run),
		// and the table is already loaded.
		base = ckAgg
		basePos = ckPos
		cfg.StartWindow = ckWin
		cfg.SkipStartCheckpoint = true
		cfg.PrePlace = false
		cfg.Payload = nil
		out.Recoveries++
	}
}

// replaceResume is what a successful re-placement hands back to the
// recovery loop: the identity counters and source position as of the end of
// the failed window (now fully executed on every lane), the window to
// resume planning at, and how many stream indices the dead lanes replayed.
type replaceResume struct {
	base     runAgg
	pos      uint64
	win      int
	replayed uint64
}

// tryReplace is rollback-free recovery: instead of rewinding the whole
// system to the last checkpoint, the dead node's shards are repointed onto
// stores the surviving nodes grow for them, restored individually from the
// checkpoint (client lane state + tree, through the freshly repointed
// placement), and only those lanes re-run the windows since the boundary —
// byte-identically, since plan seeds are pinned to absolute window indices
// and each lane's randomness is lane-local. Healthy lanes keep their live
// state: they already completed the failed window W (lane fan-out joins all
// lanes), so after the dead lanes catch up through W every lane sits at the
// same post-W boundary and the run resumes at W+1.
//
// Any error leaves recovery to the caller's full-rollback path, which
// tolerates whatever this attempt already changed (repointed shards restore
// through the live placement).
func (t *Trainer) tryReplace(ctx context.Context, cfg batch.TrainConfig, st batch.TrainStats, nd *remote.ErrNodeDown, src RewindSource, lastCk []byte, ckAgg runAgg, ckPos uint64, ckWin int, cur runAgg) (replaceResume, error) {
	o := t.db
	var zero replaceResume
	if !o.remote() {
		return zero, fmt.Errorf("laoram: re-placement requires a remote instance")
	}
	if st.FailedWindow < 0 {
		// The failure hit the planner, the checkpoint hook or the load —
		// there is no per-lane progress to preserve.
		return zero, fmt.Errorf("laoram: failure outside a window execution")
	}
	w := st.FailedWindow
	if w < ckWin || len(st.FailedLaneSession) != o.eng.Shards() {
		return zero, fmt.Errorf("laoram: inconsistent failed-window accounting (window %d, boundary %d)", w, ckWin)
	}

	// Classify: dead shards are the ones the placement table still routes
	// to the down node. Needs a true subset — survivors must exist both as
	// re-placement targets and as keepers of live state.
	shards := o.eng.Shards()
	dead := make([]bool, shards)
	ndead := 0
	for s := 0; s < shards; s++ {
		if o.placeAddr(s) == nd.Addr {
			dead[s] = true
			ndead++
		}
	}
	if ndead == 0 {
		return zero, fmt.Errorf("laoram: down node %s serves no shard", nd.Addr)
	}
	if ndead == shards {
		return zero, fmt.Errorf("laoram: down node %s serves every shard; nothing survives to re-place onto", nd.Addr)
	}
	var survivors []*remote.Client
	for _, rc := range o.remoteList() {
		if rc.Addr() != nd.Addr {
			survivors = append(survivors, rc)
		}
	}
	if len(survivors) == 0 {
		return zero, fmt.Errorf("laoram: no surviving node connected")
	}

	// Repoint each dead shard onto a store a survivor grows for it. Unlike
	// Migrate nothing is copied — the old placement is unreachable, and the
	// tree content comes from the checkpoint restore below.
	rr := 0
	for s := 0; s < shards; s++ {
		if !dead[s] {
			continue
		}
		tc := survivors[rr%len(survivors)]
		rr++
		view, err := tc.AddStore()
		if err != nil {
			return zero, fmt.Errorf("laoram: grow store on %s for shard %d: %w", tc.Addr(), s, err)
		}
		if err := o.places[s].Repoint(view); err != nil {
			return zero, fmt.Errorf("laoram: repoint shard %d: %w", s, err)
		}
	}
	if err := o.loadStateShards(bytes.NewReader(lastCk), dead); err != nil {
		return zero, fmt.Errorf("laoram: per-shard restore: %w", err)
	}
	if err := src.Rewind(ckPos); err != nil {
		return zero, fmt.Errorf("laoram: re-placement rewind: %w", err)
	}

	// Catch-up: replan windows ckWin..W — identical slicing and plan seeds,
	// since StartWindow pins the absolute indices and the source sits at the
	// boundary's offset — and execute only the dead lanes. Window W runs on
	// the dead lanes for the first complete time; the healthy lanes already
	// hold its results.
	depth := cfg.Depth
	if depth == 0 {
		depth = 2 // batch.Train's default, applied there after validation
	}
	planner, err := o.eng.NewPlanner(src, shard.PlannerConfig{
		S: cfg.S, Window: cfg.Window, Depth: depth, StartWindow: ckWin,
	})
	if err != nil {
		return zero, err
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := planner.Start(pctx)
	if err != nil {
		return zero, err
	}
	drain := func() {
		cancel()
		for range ch {
		}
	}

	// The dead lanes' client access counters were just restored to their
	// boundary values; their growth over the re-executed complete windows
	// (everything before W) is exactly the replayed work. Window W is not a
	// replay — it never completed, exactly like the partial windows the
	// rollback path excludes from RewoundAccesses.
	deadAcc := func() (sum uint64) {
		for s := 0; s < shards; s++ {
			if dead[s] {
				sum += o.eng.Sub(s).Client.Stats().Accesses
			}
		}
		return sum
	}
	startAcc := deadAcc()

	var (
		replayed uint64 // dead-lane accesses re-executed for windows < W
		span     int    // stream indices covered by windows ckWin..W
		caughtW  bool
		deadW    []batch.LaneSession // dead lanes' full window-W counters
	)
	for pw := range ch {
		if pw.Index == w {
			replayed = deadAcc() - startAcc
		}
		sess, err := o.eng.NewSession(pw.Plan)
		if err != nil {
			drain()
			return zero, err
		}
		if cfg.BatchBins > 0 {
			err = sess.RunBatchedLanesContext(ctx, cfg.BatchBins, dead, cfg.NewVisit)
		} else {
			err = sess.RunLanesContext(ctx, dead, cfg.NewVisit)
		}
		if err != nil {
			drain()
			return zero, fmt.Errorf("laoram: catch-up window %d: %w", pw.Index, err)
		}
		span += pw.Accesses
		if pw.Index < w {
			continue
		}
		// pw.Index == w: record the dead lanes' complete window-W session
		// counters, replacing the partial ones the failed attempt folded in.
		deadW = make([]batch.LaneSession, shards)
		for s := 0; s < shards; s++ {
			if !dead[s] {
				continue
			}
			ls := sess.Lane(s).Stats()
			deadW[s] = batch.LaneSession{
				Bins: ls.Bins, ColdPathReads: ls.ColdPathReads,
				LookaheadRemaps: ls.LookaheadRemaps, UniformRemaps: ls.UniformRemaps,
			}
		}
		caughtW = true
		break
	}
	drain()
	if !caughtW {
		if err := planner.Err(); err != nil {
			return zero, fmt.Errorf("laoram: catch-up planner: %w", err)
		}
		return zero, fmt.Errorf("laoram: catch-up stream ended before window %d", w)
	}
	// The windows ckWin..W must cover exactly the boundary-to-failure span:
	// the completed windows' accesses since the boundary plus window W's. A
	// mismatch means the re-planned slicing diverged — unsafe to resume.
	if want := int(cur.accesses-ckAgg.accesses) + st.FailedAccesses; span != want {
		return zero, fmt.Errorf("laoram: catch-up covered %d accesses, boundary-to-failure span is %d", span, want)
	}

	// Assemble the post-W identity counters: everything the failed attempt
	// accumulated, plus window W now counting as complete, minus the dead
	// lanes' partial window-W contribution, plus their complete one.
	agg := cur
	agg.windows++
	agg.accesses += uint64(st.FailedAccesses)
	for s := 0; s < shards; s++ {
		if !dead[s] {
			continue
		}
		part := st.FailedLaneSession[s]
		agg.session.Bins += deadW[s].Bins - part.Bins
		agg.session.ColdPathReads += deadW[s].ColdPathReads - part.ColdPathReads
		agg.session.LookaheadRemaps += deadW[s].LookaheadRemaps - part.LookaheadRemaps
		agg.session.UniformRemaps += deadW[s].UniformRemaps - part.UniformRemaps
	}

	// The catch-up planner read ahead of window W (bounded queue); park the
	// source exactly after W so the resumed attempt sees the right stream.
	if err := src.Rewind(ckPos + uint64(span)); err != nil {
		return zero, fmt.Errorf("laoram: post-catch-up seek: %w", err)
	}
	return replaceResume{base: agg, pos: ckPos + uint64(span), win: w + 1, replayed: replayed}, nil
}

// sleepCtx pauses for d or until ctx fires.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Train is the one-call streaming API: plan look-ahead windows from
// opts.Source while executing them through the sharded engine.
//
//	st, err := db.Train(ctx, laoram.TrainOptions{
//	    Source:     laoram.FromSlice(upcoming),
//	    Superblock: 4,
//	    Window:     1 << 16,
//	    PrePlace:   true,
//	    Visit:      func(id uint64, row []byte) []byte { return update(row) },
//	})
//
// With Window = 0 (one window spanning the whole stream) the run is
// byte-identical to the one-shot Preprocess → LoadForPlan → NewSession →
// Run flow under the same seed.
func (o *ORAM) Train(ctx context.Context, opts TrainOptions) (*TrainStats, error) {
	t, err := o.NewTrainer(opts)
	if err != nil {
		return nil, err
	}
	return t.Train(ctx)
}
