package diskstore

import (
	"time"

	"repro/internal/oram"
)

// PrefetchPaths implements oram.PathPrefetcher: hint that the paths to
// leaves will be read soon. The hint is queued for the prefetch worker
// (and dropped when the queue is full or prefetching is disabled —
// strictly best-effort). Safe to call from any goroutine; the hint never
// influences what the store answers, only when disk reads happen
// (DESIGN.md invariant #14).
func (st *Store) PrefetchPaths(leaves []oram.Leaf) {
	if st.pfCh == nil || len(leaves) == 0 {
		return
	}
	cp := make([]oram.Leaf, len(leaves))
	copy(cp, leaves)
	select {
	case st.pfCh <- cp:
	case <-st.stop:
	default: // queue full — drop the hint
	}
}

// prefetcher is the look-ahead worker: it walks each hinted path and
// faults uncached buckets from disk into the memory tier. All its disk
// activity is reads, taken with mu dropped, so a concurrent write-back
// can leave what it read torn (a CRC mismatch) or stale (a valid record
// the demand path has since faulted in, rewritten and evicted back to
// disk). Either way the record is discarded — prefetchInstall skips any
// read that a disk write overlapped — and the demand path, the arbiter of
// integrity, reads the bucket itself.
func (st *Store) prefetcher() {
	defer st.wg.Done()
	scratch := st.newScratch()
	for {
		select {
		case <-st.stop:
			return
		case leaves := <-st.pfCh:
			// Index the hint so the demand path can report its position in
			// it: a leaf-level lookup of leaves[i]'s node moves the demand
			// cursor to i. The worker then slides a bounded look-ahead
			// window past that cursor instead of racing to the end of the
			// hint — at small budgets, anything prefetched too early is
			// LRU-evicted by demand misses before the client arrives, and
			// anything behind the cursor has already hit or missed.
			lastLvl := st.geom.Levels() - 1
			idx := make(map[uint64]int, len(leaves))
			for i, leaf := range leaves {
				if !st.geom.ValidLeaf(leaf) {
					continue
				}
				node := st.geom.NodeAt(leaf, lastLvl)
				if _, ok := idx[node]; !ok {
					idx[node] = i
				}
			}
			st.mu.Lock()
			st.pfMap = idx
			st.pfDemand = -1
			st.mu.Unlock()
			for i, leaf := range leaves {
				if !st.geom.ValidLeaf(leaf) {
					continue
				}
				stale, ok := st.pfGate(i)
				if !ok {
					return
				}
				if stale {
					continue // demand already passed this path
				}
				for lvl := 0; lvl < st.geom.Levels(); lvl++ {
					select {
					case <-st.stop:
						return
					default:
					}
					st.prefetchBucket(lvl, st.geom.NodeAt(leaf, lvl), scratch[lvl])
				}
			}
		}
	}
}

// pfGate paces hint position i: it blocks while i is more than pfLead
// paths past the demand cursor, or while unconsumed prefetched entries
// occupy more than half the cache budget. stale reports that the demand
// stream has already moved past i; ok is false when the store is
// stopping.
func (st *Store) pfGate(i int) (stale, ok bool) {
	for {
		select {
		case <-st.stop:
			return false, false
		default:
		}
		st.mu.Lock()
		d := st.pfDemand
		wait := st.budget > 0 && !st.closed &&
			(i > d+st.pfLead || st.pfBytes > st.budget/2)
		st.mu.Unlock()
		if i < d {
			return true, true
		}
		if !wait {
			return false, true
		}
		select {
		case <-st.stop:
			return false, false
		case <-time.After(20 * time.Microsecond):
		}
	}
}

// prefetchBucket faults one bucket in if it is not already resident.
func (st *Store) prefetchBucket(level int, node uint64, rec []byte) {
	if seq, ok := st.prefetchRead(level, node, rec); ok {
		st.prefetchInstall(level, node, rec, seq)
	}
}

// prefetchRead reads bucket (level, node)'s record into rec with mu
// dropped and returns the disk-write sequence the read started under. ok
// is false when the bucket is resident or the read fails or is torn.
func (st *Store) prefetchRead(level int, node uint64, rec []byte) (seq uint64, ok bool) {
	st.mu.Lock()
	_, resident := st.cache[bucketKey(level, node)]
	seq = st.diskSeq
	st.mu.Unlock()
	if resident {
		return 0, false
	}
	if _, err := st.f.ReadAt(rec, st.recOff(level, node)); err != nil {
		return 0, false
	}
	return seq, verifyRecord(rec) == nil
}

// prefetchInstall caches the record prefetchRead left in rec, unless the
// bucket became resident, the store closed, or any record was written
// since the read began (diskSeq moved past seq): the record may then
// predate the bucket's latest write-back.
func (st *Store) prefetchInstall(level int, node uint64, rec []byte, seq uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, resident := st.cache[bucketKey(level, node)]; resident || st.closed || st.diskSeq != seq {
		return
	}
	e := st.newEntry(level, node, rec)
	e.prefetched = true
	e.pfGen = st.statsGen
	st.pfBytes += int64(len(e.body))
	st.stats.PrefetchIssued++
	if err := st.insertLocked(e); err != nil {
		st.ioErr = err
	}
}
