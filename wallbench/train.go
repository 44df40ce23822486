package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	laoram "repro"
	"repro/internal/batch"
	"repro/internal/crypto"
	"repro/internal/diskstore"
	"repro/internal/loadgen"
	"repro/internal/oram"
	"repro/internal/shard"
	"repro/internal/trace"
)

// trainSpec is the engine configuration of one training workload. All of
// them run Shards=1 plaintext-or-sealed over a Kaggle-like trace with
// Depth 2 and PrePlace.
type trainSpec struct {
	s          int  // superblock size
	fat        bool // §V fat tree
	sealedDisk bool // Encrypt, DataDir at 25% MemBudget, prefetch on
}

var trainSpecs = map[string]trainSpec{
	"train-laoram-mem":         {s: 4, fat: true},
	"train-pathoram-mem":       {s: 1},
	"train-laoram-sealed-disk": {s: 4, fat: true, sealedDisk: true},
}

// trainInputs are generated from the seed before any timing starts.
type trainInputs struct {
	stream   []uint64
	expect   []uint64 // visits each row receives from one pass over stream
	written  []uint64 // rows the check stamps, in write order
	readIDs  []uint64 // rows the check reads back: unwritten and written alternating
	readWant []uint64 // what each of readIDs must hold
	key      []byte   // sealing key (sealed workload)
	budget   int64    // MemBudget (sealed workload)
}

// counters are the deterministic outputs of one repetition: a traced
// repetition must reproduce its untraced twin's exactly.
type counters struct {
	Accesses, PathReads, PathWrites, DummyReads, BytesMoved uint64
	StashPeak                                               int
	Bins, ColdPathReads, LookaheadRemaps, UniformRemaps     uint64
}

// rep is one repetition: a fresh instance trained over the whole stream.
type rep struct {
	setup   time.Duration // New + PrePlace load
	wall    time.Duration // TrainStats.WallTime
	trained uint64        // stream indices in fully executed windows
	c       counters
	bad     int64 // correctness mismatches
	checked int64 // rows read back or written by the check
}

func (r rep) accPerS() float64 { return float64(r.trained) / r.wall.Seconds() }

// latencies records the check's single-row calls.
type latencies struct{ reads, writes loadgen.Recorder }

// Row layout: bytes 0..7 hold the visit counter (or a write stamp),
// bytes 8..15 the row id.
func initRow(id uint64) []byte {
	row := make([]byte, rowBytes)
	binary.LittleEndian.PutUint64(row[8:], id)
	return row
}

func stampRow(id, stamp uint64) []byte {
	row := initRow(id)
	binary.LittleEndian.PutUint64(row, stamp)
	return row
}

func rowIs(row []byte, id, stamp uint64) bool {
	return len(row) == rowBytes &&
		binary.LittleEndian.Uint64(row) == stamp &&
		binary.LittleEndian.Uint64(row[8:]) == id
}

// writeStamp marks rows written by the check, far above any visit count.
const writeStamp = 1 << 40

// bumpVisitor is the training step: a read-modify-write that adds one to
// the row's counter.
func bumpVisitor() func(id uint64, row []byte) []byte {
	buf := make([]byte, rowBytes)
	return func(id uint64, row []byte) []byte {
		copy(buf, row)
		binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
		return buf
	}
}

// expectedVisits counts the visits each row receives when stream is
// trained with superblock size s and the given window. A repeat of an id
// while it is still in the open superblock joins that superblock instead
// of adding a visit (§IV-B bins hold unique indices), and superblocks do
// not span windows.
func expectedVisits(stream []uint64, s, window int, n uint64) []uint64 {
	exp := make([]uint64, n)
	open := make([]uint64, 0, s)
	for lo := 0; lo < len(stream); lo += window {
		open = open[:0]
		for _, id := range stream[lo:min(lo+window, len(stream))] {
			if slices.Contains(open, id) {
				continue
			}
			exp[id]++
			open = append(open, id)
			if len(open) == s {
				open = open[:0]
			}
		}
	}
	return exp
}

func makeTrainInputs(name string, spec trainSpec, p params) (*trainInputs, error) {
	stream, err := laoram.GenerateTrace(laoram.TraceConfig{
		Kind: laoram.TraceKaggle, N: p.rows, Count: p.repStream[name], Seed: p.seed,
	})
	if err != nil {
		return nil, err
	}
	in := &trainInputs{stream: stream, expect: expectedVisits(stream, spec.s, p.window, p.rows)}
	// A seeded sample of distinct rows: n are written with a stamp, n keep
	// their trained counters, and the read calls alternate between them.
	n := p.checkCalls * p.checkIDs
	perm := rand.New(rand.NewSource(p.seed + 1)).Perm(int(p.rows))[:2*n]
	for i, id := range perm[:n] {
		kept, written := uint64(perm[n+i]), uint64(id)
		in.written = append(in.written, written)
		in.readIDs = append(in.readIDs, kept, written)
		in.readWant = append(in.readWant, in.expect[kept], writeStamp+uint64(i))
	}
	if spec.sealedDisk {
		in.key = make([]byte, 32)
		rand.New(rand.NewSource(p.seed + 2)).Read(in.key)
		// MemBudget is a quarter of the tree; size the tree once with a
		// throwaway instance.
		dir, err := os.MkdirTemp(p.workdir, "size-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		db, err := laoram.New(options(spec, p, in, dir))
		if err != nil {
			return nil, err
		}
		in.budget = db.TierBytes() / 4
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func options(spec trainSpec, p params, in *trainInputs, dir string) laoram.Options {
	o := laoram.Options{
		Entries: p.rows, BlockSize: rowBytes, FatTree: spec.fat, Seed: p.seed, Shards: 1,
	}
	if spec.sealedDisk {
		o.Encrypt, o.Key, o.DataDir, o.MemBudget = true, in.key, dir, in.budget
	}
	return o
}

// rowStore is the part of laoram.ORAM and shard.Engine the check uses.
type rowStore interface {
	ReadBatch(ids []uint64) ([][]byte, error)
	WriteBatch(ids []uint64, data [][]byte) error
}

// check writes a stamp to every row of in.written, then reads back
// in.readIDs and compares each row with what it must hold: the stamp, or
// the visits the stream gives that row. Calls carry ids ids each and are
// timed into lat.
func check(rs rowStore, in *trainInputs, ids int, lat *latencies) (checked, bad int64, err error) {
	// Collect the training run's garbage first, so the timed calls do not
	// share the CPU with a collection they did not cause.
	runtime.GC()
	timed := func(rec *loadgen.Recorder, f func() error) error {
		t := time.Now()
		err := f()
		if err == nil {
			rec.Observe(loadgen.OK, time.Since(t))
		}
		return err
	}
	for lo := 0; lo < len(in.written); lo += ids {
		batch := in.written[lo:min(lo+ids, len(in.written))]
		data := make([][]byte, len(batch))
		for j, id := range batch {
			data[j] = stampRow(id, writeStamp+uint64(lo+j))
		}
		if err := timed(&lat.writes, func() error { return rs.WriteBatch(batch, data) }); err != nil {
			return checked, bad, fmt.Errorf("write rows %d..: %w", batch[0], err)
		}
		checked += int64(len(batch))
	}
	for lo := 0; lo < len(in.readIDs); lo += ids {
		batch := in.readIDs[lo:min(lo+ids, len(in.readIDs))]
		var rows [][]byte
		if err := timed(&lat.reads, func() (err error) { rows, err = rs.ReadBatch(batch); return err }); err != nil {
			return checked, bad, fmt.Errorf("read rows %d..: %w", batch[0], err)
		}
		for j, id := range batch {
			if !rowIs(rows[j], id, in.readWant[lo+j]) {
				bad++
			}
		}
		checked += int64(len(batch))
	}
	return checked, bad, nil
}

// trainRep runs one untraced repetition through the public API. corrupt,
// when non-nil, is applied to the trained instance before the check (the
// self-test's deliberate fault).
func trainRep(spec trainSpec, p params, in *trainInputs, lat *latencies, corrupt func(*laoram.ORAM) error) (rep, error) {
	var r rep
	dir := ""
	if spec.sealedDisk {
		var err error
		if dir, err = os.MkdirTemp(p.workdir, "data-"); err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
	}
	start := time.Now()
	db, err := laoram.New(options(spec, p, in, dir))
	if err != nil {
		return r, err
	}
	built := time.Since(start)
	defer db.Close()
	call := time.Now()
	st, err := db.Train(context.Background(), laoram.TrainOptions{
		Source:     laoram.FromSlice(in.stream),
		Superblock: spec.s,
		Window:     p.window,
		Depth:      2,
		PrePlace:   true,
		Payload:    initRow,
		PerLane:    func(int) laoram.Visit { return bumpVisitor() },
	})
	if err != nil {
		return r, err
	}
	r.setup = built + time.Since(call) - st.WallTime
	r.wall, r.trained = st.WallTime, st.Accesses
	s := db.Stats()
	r.c = counters{
		Accesses: s.Accesses, PathReads: s.PathReads, PathWrites: s.PathWrites,
		DummyReads: s.DummyReads, BytesMoved: s.BytesMoved, StashPeak: s.StashPeak,
		Bins: st.Session.Bins, ColdPathReads: st.Session.ColdPathReads,
		LookaheadRemaps: st.Session.LookaheadRemaps, UniformRemaps: st.Session.UniformRemaps,
	}
	if corrupt != nil {
		if err := corrupt(db); err != nil {
			return r, err
		}
	}
	r.checked, r.bad, err = check(db, in, p.checkIDs, lat)
	if err != nil {
		return r, err
	}
	return r, db.Close()
}

// trainLayers accumulates the traced repetitions' per-layer figures.
type trainLayers struct {
	plan, exec, stall, plannerBlocked time.Duration
	queueSum                          float64 // QueueMean weighted by windows
	windows                           int
	visitNs, sourceNs                 atomic.Int64
	store                             storeTracer
	sealers                           []*timedSealer
	tier                              oram.TierStats
	c                                 counters
	disk                              bool
}

// timedSource times the planner's reads of the index stream.
type timedSource struct {
	inner shard.Source
	ns    *atomic.Int64
}

func (s timedSource) Read(ctx context.Context, dst []uint64) (int, error) {
	defer func(t time.Time) { s.ns.Add(int64(time.Since(t))) }(time.Now())
	return s.inner.Read(ctx, dst)
}

// trainRepTraced runs one repetition on a stack assembled from the layers'
// public constructors — the same stack laoram.New builds for these
// options — with timing decorators around the backing store, the sealer,
// the visitor and the source, and trains it with batch.Train, the call
// laoram.Train makes.
func trainRepTraced(spec trainSpec, p params, in *trainInputs, L *trainLayers) (rep, error) {
	var r rep
	dir := ""
	if spec.sealedDisk {
		var err error
		if dir, err = os.MkdirTemp(p.workdir, "data-"); err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
	}
	var disks []*diskstore.Store
	defer func() {
		for _, ds := range disks {
			ds.Close() // the arena is deleted next; a flush error changes nothing
		}
	}()
	eng, err := shard.New(shard.Config{
		Shards: 1, Entries: p.rows, Seed: p.seed,
		Build: func(i int, per uint64, seed int64) (shard.Sub, error) {
			gc := oram.GeometryConfig{LeafBits: oram.LeafBitsFor(per), LeafZ: 4, BlockSize: rowBytes}
			if spec.fat {
				gc.RootZ, gc.Profile = 8, oram.ProfileLinear
			}
			g, err := oram.NewGeometry(gc)
			if err != nil {
				return shard.Sub{}, err
			}
			var inner oram.Store
			if spec.sealedDisk {
				cs, err := crypto.NewSealer(in.key)
				if err != nil {
					return shard.Sub{}, err
				}
				ts := &timedSealer{inner: cs, armed: &L.store.armed}
				L.sealers = append(L.sealers, ts)
				ds, err := diskstore.Open(diskstore.Config{
					Path:      filepath.Join(dir, fmt.Sprintf("tree-%d.laor", i)),
					Geometry:  g,
					Sealer:    ts,
					MemBudget: max(in.budget, 1),
					Prefetch:  true,
				})
				if err != nil {
					return shard.Sub{}, err
				}
				disks = append(disks, ds)
				inner = ds
			} else {
				ps, err := oram.NewPayloadStore(g, nil)
				if err != nil {
					return shard.Sub{}, err
				}
				inner = ps
			}
			timed, err := wrapStore(inner, L.store.lane())
			if err != nil {
				return shard.Sub{}, err
			}
			cs := oram.NewCountingStore(timed, nil)
			rng, src := trace.NewCountedRNG(seed)
			client, err := oram.NewClient(oram.ClientConfig{
				Store: cs, Rand: rng, Evict: oram.PaperEvict, StashHits: true, Blocks: per,
			})
			if err != nil {
				return shard.Sub{}, err
			}
			sub := shard.Sub{Client: client, Store: cs, Src: src}
			if pf, ok := timed.(oram.PathPrefetcher); ok {
				sub.Prefetch = pf
			}
			return sub, nil
		},
	})
	if err != nil {
		return r, err
	}
	st, err := batch.Train(context.Background(), eng, timedSource{laoram.FromSlice(in.stream), &L.sourceNs}, batch.TrainConfig{
		S: spec.s, Window: p.window, Depth: 2, PrePlace: true, Payload: initRow,
		// A session's visitors are built after the PrePlace load, so
		// arming here keeps the load out of the store figures.
		NewVisit: func(int) shard.Visit {
			L.store.arm()
			v := bumpVisitor()
			return func(id uint64, row []byte) []byte {
				defer func(t time.Time) { L.visitNs.Add(int64(time.Since(t))) }(time.Now())
				return v(id, row)
			}
		},
	})
	L.store.armed.Store(false)
	if err != nil {
		return r, err
	}
	r.wall, r.trained = st.Wall, st.Accesses
	es := eng.Stats()
	r.c = counters{
		Accesses: es.Access.Accesses, PathReads: es.Access.PathReads, PathWrites: es.Access.PathWrites,
		DummyReads: es.Access.DummyReads, BytesMoved: es.Counters.BytesRead + es.Counters.BytesWritten,
		StashPeak: es.StashPeak,
		Bins:      st.Bins, ColdPathReads: st.ColdPathReads,
		LookaheadRemaps: st.LookaheadRemaps, UniformRemaps: st.UniformRemaps,
	}
	L.plan += st.PlanTime
	L.exec += st.TrainTime
	L.stall += st.Stalled
	L.plannerBlocked += st.PlannerStalled
	L.queueSum += st.QueueMean * float64(st.Windows)
	L.windows += st.Windows
	L.tier = L.tier.Add(es.Tier)
	L.c = addCounters(L.c, r.c)
	L.disk = spec.sealedDisk
	r.checked, r.bad, err = check(eng, in, p.checkIDs, &latencies{})
	return r, err
}

func addCounters(a, b counters) counters {
	return counters{
		Accesses: a.Accesses + b.Accesses, PathReads: a.PathReads + b.PathReads,
		PathWrites: a.PathWrites + b.PathWrites, DummyReads: a.DummyReads + b.DummyReads,
		BytesMoved: a.BytesMoved + b.BytesMoved, StashPeak: max(a.StashPeak, b.StashPeak),
		Bins: a.Bins + b.Bins, ColdPathReads: a.ColdPathReads + b.ColdPathReads,
		LookaheadRemaps: a.LookaheadRemaps + b.LookaheadRemaps, UniformRemaps: a.UniformRemaps + b.UniformRemaps,
	}
}

// runTrain measures a training workload: fresh-instance repetitions over
// the same seeded stream until the measured time reaches the budget (and
// at least minReps, so setup_s is a median). The traced run then repeats
// the same repetitions on the traced stack.
func runTrain(name string, p params) (result, error) {
	spec := trainSpecs[name]
	in, err := makeTrainInputs(name, spec, p)
	if err != nil {
		return result{}, err
	}
	var (
		reps     []rep
		measured time.Duration
		lat      latencies
	)
	for len(reps) < p.minReps || measured < p.budget {
		// Every set-up starts from memory returned to the OS, as in a
		// fresh process, so setup_s does not depend on what the previous
		// repetition left in the heap.
		debug.FreeOSMemory()
		r, err := trainRep(spec, p, in, &lat, nil)
		if err != nil {
			return result{}, fmt.Errorf("repetition %d: %w", len(reps), err)
		}
		reps = append(reps, r)
		measured += r.wall
	}
	res := result{Correct: true}
	rates, setups := make([]float64, len(reps)), make([]float64, len(reps))
	for i, r := range reps {
		rates[i], setups[i] = r.accPerS(), r.setup.Seconds()
		res.Attempted += int64(len(in.stream)) + r.checked
		res.Failed += int64(len(in.stream)) - int64(r.trained) + r.bad
		if r.c != reps[0].c {
			return result{}, fmt.Errorf("repetition %d counters %+v differ from repetition 0 %+v under one seed", i, r.c, reps[0].c)
		}
	}
	res.Correct = res.Failed == 0
	note("repetitions %d, stream %d indices each, measured %.3fs, acc_per_s %.0f, setup_s %.4f", len(reps), len(in.stream), measured.Seconds(), rates, setups)
	untracedRate := median(rates)
	if !p.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		c := reps[0].c
		res.Metrics = endToEnd(untracedRate, median(setups), ratio(float64(c.BytesMoved), float64(c.Accesses)), rss, &lat, res)
		return res, nil
	}

	L := &trainLayers{}
	tracedRates := make([]float64, len(reps))
	for i := range reps {
		debug.FreeOSMemory()
		r, err := trainRepTraced(spec, p, in, L)
		if err != nil {
			return result{}, fmt.Errorf("traced repetition %d: %w", i, err)
		}
		if r.c != reps[i].c {
			return result{}, fmt.Errorf("traced repetition %d counters %+v differ from untraced %+v", i, r.c, reps[i].c)
		}
		tracedRates[i] = r.accPerS()
		res.Attempted += int64(len(in.stream)) + r.checked
		res.Failed += int64(len(in.stream)) - int64(r.trained) + r.bad
	}
	res.Correct = res.Failed == 0
	note("traced counters equal the untraced run's in all %d repetitions", len(reps))
	res.Metrics = trainLayerMetrics(L, 1-median(tracedRates)/untracedRate)
	return res, nil
}

// endToEnd assembles the end-to-end metrics every workload prints.
func endToEnd(accPerS, setupS, bytesPerAccess, rssMB float64, lat *latencies, res result) map[string]metric {
	rs, ws := lat.reads.Stats(0), lat.writes.Stats(0)
	// The tails are printed with their sample counts but are not metrics:
	// on a shared VM their run-to-run spread exceeds any bound (README.md).
	note("latency: %d read calls p50/p95/p99 %v/%v/%v, %d write calls %v/%v/%v",
		rs.OK, rs.P50, rs.P95, rs.P99, ws.OK, ws.P50, ws.P95, ws.P99)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return map[string]metric{
		"acc_per_s":        {accPerS, "1/s"},
		"setup_s":          {setupS, "s"},
		"bytes_per_access": {bytesPerAccess, "B"},
		"peak_rss_mb":      {rssMB, "MB"},
		"read_p50_ms":      {ms(rs.P50), "ms"},
		"write_p50_ms":     {ms(ws.P50), "ms"},
		"ok_frac":          {1 - ratio(float64(res.Failed), float64(res.Attempted)), "fraction"},
	}
}

// layerMetrics is the traced run's output: every per-layer metric, zero
// where the workload does not reach the layer.
type layerMetrics map[string]float64

var layerUnits = map[string]string{
	"batch.plan_s": "s", "batch.exec_s": "s", "batch.exec_stall_s": "s",
	"batch.planner_blocked_s": "s", "batch.queue_mean": "windows",
	"core.accesses_per_bin": "count", "core.cold_reads_per_bin": "count",
	"core.lookahead_remap_ratio": "fraction",
	"oram.path_reads_per_access": "count", "oram.path_writes_per_access": "count",
	"oram.dummy_reads_per_access": "count", "oram.stash_peak": "blocks",
	"oram.store_read_s": "s", "oram.store_write_s": "s", "oram.store_read_p99_us": "us",
	"oram.client_self_s": "s",
	"crypto.open_s":      "s", "crypto.seal_s": "s", "crypto.ops_per_access": "count",
	"diskstore.hit_ratio": "fraction", "diskstore.misses_per_access": "count",
	"diskstore.prefetch_useful_ratio": "fraction", "diskstore.demand_stall_s": "s",
	"diskstore.store_s":     "s",
	"remote.server_store_s": "s", "remote.call_minus_store_s": "s", "remote.server_ops": "count",
	"remote.sheds": "count", "shard.lane_skew": "ratio",
	"laoram.visit_s": "s", "laoram.source_s": "s", "trace_overhead_frac": "fraction",
}

func (m layerMetrics) out() map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{m[name], unit}
	}
	return out
}

func trainLayerMetrics(L *trainLayers, overhead float64) map[string]metric {
	c := L.c
	acc := float64(c.Accesses)
	readS, writeS, _, p99us := L.store.totals()
	visitS := time.Duration(L.visitNs.Load()).Seconds()
	m := layerMetrics{
		"batch.plan_s":            L.plan.Seconds(),
		"batch.exec_s":            L.exec.Seconds(),
		"batch.exec_stall_s":      L.stall.Seconds(),
		"batch.planner_blocked_s": L.plannerBlocked.Seconds(),
		"batch.queue_mean":        ratio(L.queueSum, float64(L.windows)),

		"core.accesses_per_bin":      ratio(acc, float64(c.Bins)),
		"core.cold_reads_per_bin":    ratio(float64(c.ColdPathReads), float64(c.Bins)),
		"core.lookahead_remap_ratio": ratio(float64(c.LookaheadRemaps), float64(c.LookaheadRemaps+c.UniformRemaps)),

		"oram.path_reads_per_access":  ratio(float64(c.PathReads), acc),
		"oram.path_writes_per_access": ratio(float64(c.PathWrites), acc),
		"oram.dummy_reads_per_access": ratio(float64(c.DummyReads), acc),
		"oram.stash_peak":             float64(c.StashPeak),
		"oram.store_read_s":           readS,
		"oram.store_write_s":          writeS,
		"oram.store_read_p99_us":      p99us,
		"oram.client_self_s":          L.exec.Seconds() - readS - writeS - visitS,

		"laoram.visit_s":      visitS,
		"laoram.source_s":     time.Duration(L.sourceNs.Load()).Seconds(),
		"trace_overhead_frac": overhead,
	}
	var ops int64
	for _, s := range L.sealers {
		m["crypto.open_s"] += time.Duration(s.openNs.Load()).Seconds()
		m["crypto.seal_s"] += time.Duration(s.sealNs.Load()).Seconds()
		ops += s.opens.Load() + s.seals.Load()
	}
	m["crypto.ops_per_access"] = ratio(float64(ops), acc)
	if L.disk {
		t := L.tier
		m["diskstore.hit_ratio"] = ratio(float64(t.Hits), float64(t.Hits+t.Misses))
		m["diskstore.misses_per_access"] = ratio(float64(t.Misses), acc)
		m["diskstore.prefetch_useful_ratio"] = ratio(float64(t.PrefetchUseful), float64(t.PrefetchIssued))
		m["diskstore.demand_stall_s"] = time.Duration(t.DemandStallNs).Seconds()
		m["diskstore.store_s"] = readS + writeS
	}
	return m.out()
}
