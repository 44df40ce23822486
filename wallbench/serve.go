package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	laoram "repro"
	"repro/internal/loadgen"
	"repro/internal/oram"
	"repro/internal/remote"
	"repro/internal/shard"
)

// serveNodes is the node count of serve-remote-rw: two in-process servers
// on loopback, one shard each, so the client holds two connections.
const serveNodes = 2

// serveCall is one pre-generated batch call.
type serveCall struct {
	ids   []uint64
	write bool
}

// makeServeCalls generates the seeded call sequence: Kaggle-like keys, 70%
// of calls reads and 30% writes. The loop replays it from the start if a
// run outlasts it; write stamps stay unique because they count calls made.
func makeServeCalls(p params, n int) ([]serveCall, error) {
	keys, err := laoram.GenerateTrace(laoram.TraceConfig{
		Kind: laoram.TraceKaggle, N: p.rows, Count: n * p.callIDs, Seed: p.seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed + 3))
	calls := make([]serveCall, n)
	for i := range calls {
		calls[i] = serveCall{ids: keys[i*p.callIDs : (i+1)*p.callIDs], write: rng.Float64() < 0.3}
	}
	return calls, nil
}

// rig is one serving deployment: the servers, their (optionally timed)
// stores, and the client instance dialled to them.
type rig struct {
	srvs  []*remote.Server
	lanes []*laneTimer // per server, traced rigs only
	db    *laoram.ORAM
}

func (r *rig) close() error {
	err := r.db.Close()
	for _, s := range r.srvs {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// startRig starts the servers, dials them through the public API and
// loads the table. tr, when non-nil, times every server store from the
// moment it is armed.
func startRig(p params, tr *storeTracer) (*rig, error) {
	g, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits: oram.LeafBitsFor(shard.PerShardEntries(p.rows, serveNodes)), LeafZ: 4, BlockSize: rowBytes,
	})
	if err != nil {
		return nil, err
	}
	r := &rig{}
	addrs := make([]string, serveNodes)
	for j := range addrs {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			r.closeServers()
			return nil, err
		}
		var st oram.Store = ps
		if tr != nil {
			l := tr.lane()
			if st, err = wrapStore(ps, l); err != nil {
				r.closeServers()
				return nil, err
			}
			r.lanes = append(r.lanes, l)
		}
		srv, err := remote.NewSharded([]oram.Store{st}, 0, nil)
		if err != nil {
			r.closeServers()
			return nil, err
		}
		r.srvs = append(r.srvs, srv)
		if addrs[j], err = srv.Listen("127.0.0.1:0"); err != nil {
			r.closeServers()
			return nil, err
		}
	}
	r.db, err = laoram.New(laoram.Options{
		Entries: p.rows, Shards: serveNodes, RemoteAddrs: addrs, Seed: p.seed,
	})
	if err != nil {
		r.closeServers()
		return nil, err
	}
	if err := r.db.Load(p.rows, initRow); err != nil {
		r.close()
		return nil, err
	}
	r.db.ResetStats()
	return r, nil
}

func (r *rig) closeServers() {
	for _, s := range r.srvs {
		s.Close()
	}
}

// serveLoop is the closed loop: one caller issuing the call sequence and
// waiting for each reply, until the budget has passed and both kinds of
// call have minCalls latency samples. Every read is checked against a
// model of the rows written so far.
type serveLoop struct {
	ids, bad      int64
	elapsed       time.Duration
	calls         int
	reads, writes int
	snaps         []counters // deterministic counters every snapEvery calls
	lat           latencies
	skewMax       float64 // Σ over calls of the slowest lane's server store ns
	skewMean      float64 // Σ over calls of the mean lane's
	callMinusS    float64 // Σ over calls of call time minus the slowest lane's store time, s
}

const snapEvery = 256

func serveCounters(db *laoram.ORAM) counters {
	s := db.Stats()
	return counters{
		Accesses: s.Accesses, PathReads: s.PathReads, PathWrites: s.PathWrites,
		DummyReads: s.DummyReads, BytesMoved: s.BytesMoved, StashPeak: s.StashPeak,
	}
}

func runServeLoop(r *rig, calls []serveCall, p params) (*serveLoop, error) {
	out := &serveLoop{}
	model := make([]uint64, p.rows) // stamp each row should hold
	var stamp uint64
	before := make([]int64, len(r.lanes))
	start := time.Now()
	for k := 0; ; k++ {
		out.elapsed = time.Since(start)
		if out.elapsed >= p.budget && out.reads >= p.minCalls && out.writes >= p.minCalls {
			break
		}
		if k%snapEvery == 0 {
			out.snaps = append(out.snaps, serveCounters(r.db))
		}
		c := calls[k%len(calls)]
		var data [][]byte
		if c.write {
			data = make([][]byte, len(c.ids))
			for j, id := range c.ids {
				stamp++
				data[j] = stampRow(id, writeStamp+stamp)
			}
		}
		for i, l := range r.lanes {
			before[i] = l.storeNs()
		}
		t := time.Now()
		var got [][]byte
		var err error
		if c.write {
			err = r.db.WriteBatch(c.ids, data)
		} else {
			got, err = r.db.ReadBatch(c.ids)
		}
		d := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("call %d: %w", k, err)
		}
		if c.write {
			out.lat.writes.Observe(loadgen.OK, d)
			out.writes++
			for j, id := range c.ids {
				model[id] = writeStamp + stamp - uint64(len(c.ids)-1-j)
			}
		} else {
			out.lat.reads.Observe(loadgen.OK, d)
			out.reads++
			for j, id := range c.ids {
				if !rowIs(got[j], id, model[id]) {
					out.bad++
				}
			}
		}
		out.ids += int64(len(c.ids))
		out.calls++
		if len(r.lanes) > 0 {
			var mx, sum float64
			for i, l := range r.lanes {
				ns := float64(l.storeNs() - before[i])
				mx, sum = max(mx, ns), sum+ns
			}
			out.skewMax += mx
			out.skewMean += sum / float64(len(r.lanes))
			out.callMinusS += d.Seconds() - mx/1e9
		}
	}
	return out, nil
}

// runServe measures serve-remote-rw: three set-ups (setup_s is their
// median), then the closed loop on the last one.
func runServe(name string, p params) (result, error) {
	calls, err := makeServeCalls(p, 8192)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	var r *rig
	for i := 0; i < p.minReps; i++ {
		debug.FreeOSMemory() // as for training: set-ups start from returned memory
		t := time.Now()
		if r, err = startRig(p, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < p.minReps-1 {
			if err := r.close(); err != nil {
				return result{}, err
			}
		}
	}
	runtime.GC()
	loop, err := runServeLoop(r, calls, p)
	if err != nil {
		r.close()
		return result{}, err
	}
	st := r.db.Stats()
	if err := r.close(); err != nil {
		return result{}, err
	}
	res := result{Attempted: loop.ids, Failed: loop.bad, Correct: loop.bad == 0}
	rate := float64(loop.ids) / loop.elapsed.Seconds()
	note("calls %d (%d ids each), measured %.3fs", loop.calls, p.callIDs, loop.elapsed.Seconds())
	if !p.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		res.Metrics = endToEnd(rate, median(setups), ratio(float64(st.BytesMoved), float64(st.Accesses)), rss, &loop.lat, res)
		return res, nil
	}

	tr := &storeTracer{}
	runtime.GC()
	tr2, err := startRig(p, tr)
	if err != nil {
		return result{}, err
	}
	tr.arm()
	tl, err := runServeLoop(tr2, calls, p)
	tr.armed.Store(false)
	if err != nil {
		tr2.close()
		return result{}, err
	}
	tst := tr2.db.Stats()
	var sheds uint64
	for _, s := range tr2.srvs {
		sheds += s.OverloadStats().Shed()
	}
	if err := tr2.close(); err != nil {
		return result{}, err
	}
	n := min(len(loop.snaps), len(tl.snaps))
	for i := 0; i < n; i++ {
		if loop.snaps[i] != tl.snaps[i] {
			return result{}, fmt.Errorf("traced counters after %d calls %+v differ from untraced %+v", i*snapEvery, tl.snaps[i], loop.snaps[i])
		}
	}
	note("traced counters equal the untraced run's at %d checkpoints (every %d calls)", n, snapEvery)
	res.Attempted += tl.ids
	res.Failed += tl.bad
	res.Correct = res.Failed == 0

	acc := float64(tst.Accesses)
	readS, writeS, ops, p99us := tr.totals()
	m := layerMetrics{
		"oram.path_reads_per_access":  ratio(float64(tst.PathReads), acc),
		"oram.path_writes_per_access": ratio(float64(tst.PathWrites), acc),
		"oram.dummy_reads_per_access": ratio(float64(tst.DummyReads), acc),
		"oram.stash_peak":             float64(tst.StashPeak),
		"oram.store_read_s":           readS,
		"oram.store_write_s":          writeS,
		"oram.store_read_p99_us":      p99us,
		"remote.server_store_s":       readS + writeS,
		"remote.call_minus_store_s":   tl.callMinusS,
		"remote.server_ops":           float64(ops),
		"remote.sheds":                float64(sheds),
		"shard.lane_skew":             ratio(tl.skewMax, tl.skewMean),
		"trace_overhead_frac":         1 - (float64(tl.ids)/tl.elapsed.Seconds())/rate,
	}
	res.Metrics = m.out()
	return res, nil
}
