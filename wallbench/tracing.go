package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/crypto"
	"repro/internal/loadgen"
	"repro/internal/oram"
)

// This file holds the traced run's instruments. They wrap the layers'
// public interfaces from the outside — the backing oram.Store under the
// client's CountingStore, the crypto.Sealer under the store, the Visit
// callback and the IndexSource — and keep their timings in memory until the
// run reports them. The untraced run uses none of this.

// laneTimer accumulates the store operations of one backing store (one
// shard lane, or one server's store). Totals are atomic because the remote
// workload reads them from the caller's goroutine while server dispatch
// goroutines add to them.
type laneTimer struct {
	tr      *storeTracer
	readNs  atomic.Int64
	writeNs atomic.Int64
	ops     atomic.Int64
}

func (l *laneTimer) done(read bool, start time.Time) {
	if !l.tr.armed.Load() {
		return
	}
	d := time.Since(start)
	l.ops.Add(1)
	if !read {
		l.writeNs.Add(int64(d))
		return
	}
	l.readNs.Add(int64(d))
	l.tr.reads.Observe(loadgen.OK, d)
}

// storeNs is the lane's total store time so far.
func (l *laneTimer) storeNs() int64 { return l.readNs.Load() + l.writeNs.Load() }

// storeTracer owns the lane timers of one traced instance and every store
// read's duration. Nothing is recorded until arm is called, so a bulk load
// before the measured phase stays out of the figures.
type storeTracer struct {
	armed atomic.Bool
	lanes []*laneTimer
	reads loadgen.Recorder
}

func (t *storeTracer) arm() { t.armed.Store(true) }

func (t *storeTracer) lane() *laneTimer {
	l := &laneTimer{tr: t}
	t.lanes = append(t.lanes, l)
	return l
}

// totals sums every lane: read and write seconds, operation count and the
// p99 read duration in microseconds.
func (t *storeTracer) totals() (readS, writeS float64, ops int64, readP99us float64) {
	for _, l := range t.lanes {
		readS += time.Duration(l.readNs.Load()).Seconds()
		writeS += time.Duration(l.writeNs.Load()).Seconds()
		ops += l.ops.Load()
	}
	return readS, writeS, ops, float64(t.reads.Stats(0).P99) / 1e3
}

// The optional oram.Store extensions the client and the shard engine probe
// for. A decorator must implement exactly the ones its store implements,
// or the client would take a different code path under tracing.
const (
	hasPath = 1 << iota
	hasBatch
	hasNative
	hasTiered
	hasSnap
	hasPrefetch
)

func extensions(st oram.Store) int {
	m := 0
	if _, ok := st.(oram.PathStore); ok {
		m |= hasPath
	}
	if _, ok := st.(oram.BatchStore); ok {
		m |= hasBatch
	}
	if _, ok := st.(oram.BatchNative); ok {
		m |= hasNative
	}
	if _, ok := st.(oram.TieredStore); ok {
		m |= hasTiered
	}
	if _, ok := st.(oram.Snapshotter); ok {
		m |= hasSnap
	}
	if _, ok := st.(oram.PathPrefetcher); ok {
		m |= hasPrefetch
	}
	return m
}

// timedStore times the core Store methods of the wrapped store. The
// optional extensions are separate method sets, composed per store below.
type timedStore struct {
	inner oram.Store
	t     *laneTimer
}

func (s *timedStore) Geometry() *oram.Geometry { return s.inner.Geometry() }

func (s *timedStore) ReadBucket(level int, node uint64, dst []oram.Slot) error {
	defer s.t.done(true, time.Now())
	return s.inner.ReadBucket(level, node, dst)
}

func (s *timedStore) WriteBucket(level int, node uint64, src []oram.Slot) error {
	defer s.t.done(false, time.Now())
	return s.inner.WriteBucket(level, node, src)
}

func (s *timedStore) ReadSlot(level int, node uint64, slot int, dst *oram.Slot) error {
	defer s.t.done(true, time.Now())
	return s.inner.ReadSlot(level, node, slot, dst)
}

func (s *timedStore) WriteSlot(level int, node uint64, slot int, src oram.Slot) error {
	defer s.t.done(false, time.Now())
	return s.inner.WriteSlot(level, node, slot, src)
}

type timedPath struct{ s *timedStore }

func (p timedPath) ReadPath(leaf oram.Leaf, dst [][]oram.Slot) error {
	defer p.s.t.done(true, time.Now())
	return p.s.inner.(oram.PathStore).ReadPath(leaf, dst)
}

func (p timedPath) WritePath(leaf oram.Leaf, src [][]oram.Slot) error {
	defer p.s.t.done(false, time.Now())
	return p.s.inner.(oram.PathStore).WritePath(leaf, src)
}

type timedBatch struct{ s *timedStore }

func (b timedBatch) ReadBuckets(refs []oram.BucketRef, dst [][]oram.Slot) error {
	defer b.s.t.done(true, time.Now())
	return b.s.inner.(oram.BatchStore).ReadBuckets(refs, dst)
}

func (b timedBatch) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	defer b.s.t.done(false, time.Now())
	return b.s.inner.(oram.BatchStore).WriteBuckets(refs, src)
}

type fwdNative struct{ inner oram.Store }

func (f fwdNative) BatchNative() bool { return f.inner.(oram.BatchNative).BatchNative() }

type fwdTiered struct{ inner oram.Store }

func (f fwdTiered) TierStats() oram.TierStats { return f.inner.(oram.TieredStore).TierStats() }
func (f fwdTiered) ResetTierStats()           { f.inner.(oram.TieredStore).ResetTierStats() }

type fwdSnap struct{ inner oram.Store }

func (f fwdSnap) Save(w io.Writer) error { return f.inner.(oram.Snapshotter).Save(w) }
func (f fwdSnap) Load(r io.Reader) error { return f.inner.(oram.Snapshotter).Load(r) }

// Prefetch hints are asynchronous and untimed: the disk store faults paths
// in on its own worker, and the stall it hides shows in the tier counters.
type fwdPrefetch struct{ inner oram.Store }

func (f fwdPrefetch) PrefetchPaths(leaves []oram.Leaf) {
	f.inner.(oram.PathPrefetcher).PrefetchPaths(leaves)
}

// wrapStore returns a timing decorator over st with exactly st's optional
// extensions. Go cannot add methods at run time, so each extension set in
// use has its own composition: the in-memory PayloadStore, the disk store
// and the remote shard view.
func wrapStore(st oram.Store, l *laneTimer) (oram.Store, error) {
	ts := &timedStore{inner: st, t: l}
	p, b := timedPath{ts}, timedBatch{ts}
	n, tr, sn, pf := fwdNative{st}, fwdTiered{st}, fwdSnap{st}, fwdPrefetch{st}
	switch m := extensions(st); m {
	case hasPath | hasBatch | hasNative | hasSnap: // oram.PayloadStore
		return &struct {
			*timedStore
			timedPath
			timedBatch
			fwdNative
			fwdSnap
		}{ts, p, b, n, sn}, nil
	case hasPath | hasBatch | hasNative | hasTiered | hasSnap | hasPrefetch: // diskstore.Store
		return &struct {
			*timedStore
			timedPath
			timedBatch
			fwdNative
			fwdTiered
			fwdSnap
			fwdPrefetch
		}{ts, p, b, n, tr, sn, pf}, nil
	case hasPath | hasBatch | hasSnap: // remote.ShardStore
		return &struct {
			*timedStore
			timedPath
			timedBatch
			fwdSnap
		}{ts, p, b, sn}, nil
	default:
		return nil, fmt.Errorf("wallbench: no timing decorator for %T (extension set %#x)", st, m)
	}
}

// timedSealer times seal and open calls of a crypto.Sealer. It implements
// oram.InplaceSealer like the sealer it wraps, so stores keep their
// in-place path. The disk store may seal from its flusher goroutine, hence
// the atomics.
type timedSealer struct {
	inner          *crypto.Sealer
	armed          *atomic.Bool
	openNs, sealNs atomic.Int64
	opens, seals   atomic.Int64
}

var _ oram.InplaceSealer = (*timedSealer)(nil)

func (s *timedSealer) note(seal bool, start time.Time) {
	if !s.armed.Load() {
		return
	}
	d := int64(time.Since(start))
	if seal {
		s.sealNs.Add(d)
		s.seals.Add(1)
		return
	}
	s.openNs.Add(d)
	s.opens.Add(1)
}

func (s *timedSealer) SealedSize(plain int) int { return s.inner.SealedSize(plain) }

func (s *timedSealer) Seal(plain []byte) ([]byte, error) {
	defer s.note(true, time.Now())
	return s.inner.Seal(plain)
}

func (s *timedSealer) Open(sealed []byte) ([]byte, error) {
	defer s.note(false, time.Now())
	return s.inner.Open(sealed)
}

func (s *timedSealer) SealTo(dst, plain []byte) error {
	defer s.note(true, time.Now())
	return s.inner.SealTo(dst, plain)
}

func (s *timedSealer) OpenTo(dst, sealed []byte) error {
	defer s.note(false, time.Now())
	return s.inner.OpenTo(dst, sealed)
}
