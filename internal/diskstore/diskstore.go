package diskstore

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/oram"
)

// Arena file header, 64 bytes, big-endian like laoramserve's LAORCKF1
// checkpoint discipline:
//
//	[ 0: 8) magic "LAORDSK1"
//	[ 8:16) epoch — incremented every time the arena reaches a clean,
//	        fsynced state (Sync/Close/Load)
//	[16:24) clean flag — 1 when every record on disk is consistent and
//	        fsynced; forced to 0 (and fsynced) before the first record
//	        write of a cycle, so a crash mid write-behind is detectable
//	[24:32) leafBits, [32:40) stride, [40:48) totalSlots,
//	[48:56) layout fingerprint — geometry guards against opening an arena
//	        built for a different tree
//	[56:64) reserved
const (
	fileMagic = 0x4C414F5244534B31 // "LAORDSK1"
	headerLen = 64
)

// snapshotMagicPayload is oram's PayloadStore snapshot magic
// (snapshotMagic+2, "LAORAMV1"+2): diskstore Save/Load speaks exactly the
// PayloadStore format so disk-backed and in-memory checkpoints
// interchange (laoramserve can restore either kind into either store).
const snapshotMagicPayload = 0x4C414F52414D5631 + 2

// ErrUnclean reports an arena whose header says it was not cleanly
// synced — the process died mid write-behind flush, so record state on
// disk may be a blend of epochs. The store refuses to serve it: restore
// from a checkpoint (Load rewrites every record) or open with
// Config.Reset to start fresh.
var ErrUnclean = errors.New("diskstore: arena not cleanly closed — possible torn write-behind flush; restore from a checkpoint or reset")

// flushThreshold is how many dirty buckets accumulate before the
// write-behind goroutine is woken to coalesce them into one batch of
// positioned writes (Sync/Close flush whatever remains).
const flushThreshold = 64

// prefetchQueue bounds the number of outstanding prefetch hint batches;
// hints beyond it are dropped (prefetch is strictly best-effort).
const prefetchQueue = 16

// Config assembles a disk-backed bucket store.
type Config struct {
	// Path is the arena file (one file per shard tree). Created (with
	// every slot a dummy) when absent; resumed when present and clean.
	Path string
	// Geometry is the tree shape; must match an existing arena's header.
	Geometry *oram.Geometry
	// Sealer, when non-nil, seals payloads at rest (records then hold
	// ciphertext at the sealed stride). Sealing is serial — the crypto
	// pool fan-out applies to in-memory stores only.
	Sealer oram.Sealer
	// MemBudget bounds the in-memory bucket cache in body bytes (the
	// quantity CacheBytes reports for a whole tree). <= 0 means
	// unbounded — the whole tree is cached after first touch. Positive
	// budgets are clamped up to two root→leaf paths so the store can
	// always make progress.
	MemBudget int64
	// Prefetch starts the look-ahead prefetch worker consuming
	// PrefetchPaths hints; without it hints are dropped.
	Prefetch bool
	// Reset reinitialises the arena (every slot a dummy, epoch carried
	// forward when the old header is readable) regardless of prior
	// content — the restore-from-checkpoint escape hatch for an
	// ErrUnclean arena.
	Reset bool
}

// entry is one cached bucket record body (CRC trailer lives only on
// disk; body slices reserve crcLen capacity so flushing stamps in place).
type entry struct {
	key        int64
	level      int
	node       uint64
	body       []byte
	dirty      bool
	queued     bool   // sitting in the dirty queue
	prefetched bool   // faulted in by the prefetcher, not yet demanded
	pfGen      uint64 // statsGen when prefetched
	elem       *list.Element
}

// Store is a disk-backed bucket store: oram.Store / PathStore /
// BatchStore / Snapshotter over a fixed-layout arena file, with a bounded
// LRU bucket cache, write-behind flushing and a look-ahead prefetcher.
//
// Like the in-memory stores it is driven by a single client goroutine;
// unlike them it synchronises internally, because its own flush and
// prefetch goroutines — and planner-side PrefetchPaths hints — touch the
// cache concurrently.
type Store struct {
	geom      *oram.Geometry
	sealer    oram.Sealer
	inplace   oram.InplaceSealer
	stride    int
	zeroBlock []byte // plaintext zero row for nil-payload real blocks
	path      string
	f         *os.File

	mu     sync.Mutex
	cache  map[int64]*entry
	lru    *list.List // front = most recently used
	used   int64
	budget int64 // <= 0: unbounded
	dq     []*entry
	epoch  uint64
	clean  bool // header state currently on disk
	stats  oram.TierStats
	// statsGen counts ResetTierStats calls. A demand hit on a prefetched
	// entry counts as PrefetchUseful only if the prefetch was issued in the
	// current generation, so PrefetchUseful never exceeds PrefetchIssued.
	statsGen uint64
	// pfBytes is the resident footprint of prefetched-but-not-yet-demanded
	// entries; the prefetch worker throttles on it so look-ahead never runs
	// so far ahead of the demand stream that it evicts its own useful work.
	pfBytes int64
	// pfMap indexes the active hint: leaf-level node → first hint position
	// with that leaf. The demand path uses it to report how far the client
	// has progressed into the hinted plan (pfDemand, monotone max), which
	// is what the prefetch worker paces its walk against.
	pfMap    map[uint64]int
	pfDemand int
	// pfLead is the pacing window in paths: how far past the demand cursor
	// the prefetcher may walk. Sized from the budget so the look-ahead
	// always fits in cache alongside the demand working set (0 = unpaced,
	// unbounded budget).
	pfLead int
	// diskSeq counts record writes to the arena. The prefetch worker reads
	// records with mu dropped and installs one only if diskSeq is
	// unchanged since the read: any write in between may have been this
	// very bucket's write-back, making the record it read stale.
	diskSeq uint64
	ioErr   error // sticky background flush/evict error
	closed  bool

	flushWake chan struct{}
	pfCh      chan []oram.Leaf
	stop      chan struct{}
	wg        sync.WaitGroup

	// demandScratch is the client goroutine's per-level record buffer
	// (the prefetch worker keeps its own set).
	demandScratch [][]byte
}

var (
	_ oram.Store          = (*Store)(nil)
	_ oram.PathStore      = (*Store)(nil)
	_ oram.BatchStore     = (*Store)(nil)
	_ oram.Snapshotter    = (*Store)(nil)
	_ oram.TieredStore    = (*Store)(nil)
	_ oram.PathPrefetcher = (*Store)(nil)
)

// strideFor returns the per-slot payload bytes on disk.
func strideFor(g *oram.Geometry, sealer oram.Sealer) int {
	if sealer != nil {
		return sealer.SealedSize(g.BlockSize())
	}
	return g.BlockSize()
}

// CacheBytes returns the memory-tier bytes needed to hold every bucket of
// a tree (the 100% memory budget): the sum of all record bodies.
func CacheBytes(g *oram.Geometry, sealer oram.Sealer) int64 {
	stride := strideFor(g, sealer)
	var total int64
	for lvl := 0; lvl < g.Levels(); lvl++ {
		total += int64(bodyLen(g.BucketSize(lvl), stride)) << uint(lvl)
	}
	return total
}

// FileBytes returns the arena file size for a tree: header plus every
// record (body + CRC trailer).
func FileBytes(g *oram.Geometry, sealer oram.Sealer) int64 {
	return headerLen + CacheBytes(g, sealer) + g.TotalBuckets()*crcLen
}

// TreeBytes returns this store's whole-tree cache requirement (the value
// a MemBudget of 0 effectively grants).
func (st *Store) TreeBytes() int64 {
	var total int64
	for lvl := 0; lvl < st.geom.Levels(); lvl++ {
		total += int64(bodyLen(st.geom.BucketSize(lvl), st.stride)) << uint(lvl)
	}
	return total
}

// layoutCheck fingerprints the geometry facts the record layout depends
// on, guarding an arena against reopening under a different tree shape.
func layoutCheck(g *oram.Geometry) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(g.BlockSize()))
	for lvl := 0; lvl < g.Levels(); lvl++ {
		put(uint64(g.BucketSize(lvl)))
	}
	return h.Sum64()
}

// bucketKey is the linear bucket index of (level, node) — heap order.
func bucketKey(level int, node uint64) int64 {
	return int64((uint64(1) << uint(level)) - 1 + node)
}

// recOff returns the file offset of bucket (level, node)'s record:
// records are laid out contiguously in linear slot order, each preceded
// by the CRC trailers of the buckets before it.
func (st *Store) recOff(level int, node uint64) int64 {
	return headerLen + st.geom.SlotIndex(level, node, 0)*int64(slotMeta+st.stride) + bucketKey(level, node)*crcLen
}

// Open creates or resumes the arena at cfg.Path and starts the
// write-behind (and, when configured, prefetch) workers. Resuming an
// arena that was not cleanly synced fails with ErrUnclean; a truncated or
// mismatched arena fails with a descriptive error. No torn record is ever
// served: every record read re-checks its CRC trailer.
func Open(cfg Config) (*Store, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("diskstore: Config.Path is required")
	}
	if cfg.Geometry == nil {
		return nil, fmt.Errorf("diskstore: Config.Geometry is required")
	}
	if cfg.Geometry.BlockSize() <= 0 {
		return nil, fmt.Errorf("diskstore: requires BlockSize > 0, got %d (metadata-only trees fit in memory)", cfg.Geometry.BlockSize())
	}
	st := &Store{
		geom:      cfg.Geometry,
		sealer:    cfg.Sealer,
		stride:    strideFor(cfg.Geometry, cfg.Sealer),
		zeroBlock: make([]byte, cfg.Geometry.BlockSize()),
		path:      cfg.Path,
		cache:     make(map[int64]*entry),
		lru:       list.New(),
		flushWake: make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	if is, ok := cfg.Sealer.(oram.InplaceSealer); ok {
		st.inplace = is
	}
	if cfg.MemBudget > 0 {
		var pathBody int64
		for lvl := 0; lvl < st.geom.Levels(); lvl++ {
			pathBody += int64(bodyLen(st.geom.BucketSize(lvl), st.stride))
		}
		st.budget = max(cfg.MemBudget, 2*pathBody)
		// The pacing window: half the budget in root→leaf paths, never
		// less than two — look-ahead must always fit in cache alongside
		// the demand working set.
		st.pfLead = int(max(st.budget/(2*pathBody), 2))
	}
	st.demandScratch = st.newScratch()
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	st.f = f
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	if fi.Size() == 0 || cfg.Reset {
		if err := st.initArena(fi.Size()); err != nil {
			f.Close()
			return nil, err
		}
	} else if err := st.resumeArena(fi.Size()); err != nil {
		f.Close()
		return nil, err
	}
	st.wg.Add(1)
	go st.flusher()
	if cfg.Prefetch {
		st.pfCh = make(chan []oram.Leaf, prefetchQueue)
		st.wg.Add(1)
		go st.prefetcher()
	}
	return st, nil
}

// newScratch allocates one full-record buffer per level.
func (st *Store) newScratch() [][]byte {
	s := make([][]byte, st.geom.Levels())
	for lvl := range s {
		s[lvl] = make([]byte, recLen(st.geom.BucketSize(lvl), st.stride))
	}
	return s
}

// writeHeader writes the 64-byte header with the given epoch and clean
// flag at offset 0 (no fsync; callers order their own syncs).
func (st *Store) writeHeader(epoch uint64, clean bool) error {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], fileMagic)
	binary.BigEndian.PutUint64(hdr[8:16], epoch)
	if clean {
		binary.BigEndian.PutUint64(hdr[16:24], 1)
	}
	binary.BigEndian.PutUint64(hdr[24:32], uint64(st.geom.LeafBits()))
	binary.BigEndian.PutUint64(hdr[32:40], uint64(st.stride))
	binary.BigEndian.PutUint64(hdr[40:48], uint64(st.geom.TotalSlots()))
	binary.BigEndian.PutUint64(hdr[48:56], layoutCheck(st.geom))
	if _, err := st.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("diskstore: write header: %w", err)
	}
	return nil
}

// initArena lays out a fresh arena: every slot a dummy (DummyID is
// all-ones, so a zeroed file is NOT a valid empty tree — dummies are
// written explicitly), CRC-stamped, fsynced, then the header is marked
// clean. When resetting over a readable old header the epoch continues
// from it.
func (st *Store) initArena(oldSize int64) error {
	epoch := uint64(0)
	if oldSize >= headerLen {
		var hdr [headerLen]byte
		if _, err := st.f.ReadAt(hdr[:], 0); err == nil &&
			binary.BigEndian.Uint64(hdr[0:8]) == fileMagic {
			epoch = binary.BigEndian.Uint64(hdr[8:16])
		}
	}
	size := FileBytes(st.geom, st.sealer)
	if err := st.f.Truncate(size); err != nil {
		return fmt.Errorf("diskstore: size arena: %w", err)
	}
	// Header goes down dirty first: a crash mid-init reads as unclean.
	if err := st.writeHeader(epoch, false); err != nil {
		return err
	}
	w := newOffsetWriter(st.f, headerLen)
	for lvl := 0; lvl < st.geom.Levels(); lvl++ {
		z := st.geom.BucketSize(lvl)
		rec := make([]byte, recLen(z, st.stride))
		body := rec[:bodyLen(z, st.stride)]
		for k := 0; k < z; k++ {
			putSlot(body, k, st.stride, uint64(oram.DummyID), 0, nil)
		}
		stampRecord(rec)
		for n := uint64(0); n < uint64(1)<<uint(lvl); n++ {
			if _, err := w.Write(rec); err != nil {
				return fmt.Errorf("diskstore: init arena: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("diskstore: init arena: %w", err)
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	epoch++
	if err := st.writeHeader(epoch, true); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	st.epoch, st.clean = epoch, true
	return nil
}

// resumeArena validates an existing arena's header and size against the
// configured geometry and adopts its epoch.
func (st *Store) resumeArena(size int64) error {
	var hdr [headerLen]byte
	if _, err := st.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("diskstore: %s: short header (%d-byte file): %w", st.path, size, err)
	}
	if got := binary.BigEndian.Uint64(hdr[0:8]); got != fileMagic {
		return fmt.Errorf("diskstore: %s: bad magic %#x — not a bucket arena", st.path, got)
	}
	if got := binary.BigEndian.Uint64(hdr[24:32]); got != uint64(st.geom.LeafBits()) {
		return fmt.Errorf("diskstore: %s: arena has %d leaf bits, geometry needs %d", st.path, got, st.geom.LeafBits())
	}
	if got := binary.BigEndian.Uint64(hdr[32:40]); got != uint64(st.stride) {
		return fmt.Errorf("diskstore: %s: arena stride %d != %d (sealing mismatch?)", st.path, got, st.stride)
	}
	if got := binary.BigEndian.Uint64(hdr[40:48]); got != uint64(st.geom.TotalSlots()) {
		return fmt.Errorf("diskstore: %s: arena has %d slots, geometry needs %d", st.path, got, st.geom.TotalSlots())
	}
	if got := binary.BigEndian.Uint64(hdr[48:56]); got != layoutCheck(st.geom) {
		return fmt.Errorf("diskstore: %s: arena layout fingerprint %#x != %#x (different bucket profile?)", st.path, got, layoutCheck(st.geom))
	}
	if want := FileBytes(st.geom, st.sealer); size != want {
		return fmt.Errorf("diskstore: %s: arena truncated or padded (%d bytes, want %d) — refusing to serve torn buckets", st.path, size, want)
	}
	if binary.BigEndian.Uint64(hdr[16:24]) != 1 {
		return fmt.Errorf("diskstore: %s: %w", st.path, ErrUnclean)
	}
	st.epoch = binary.BigEndian.Uint64(hdr[8:16])
	st.clean = true
	return nil
}

// Geometry implements oram.Store.
func (st *Store) Geometry() *oram.Geometry { return st.geom }

// Epoch returns the arena's clean-state epoch (bumped by Sync/Close/Load).
func (st *Store) Epoch() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch
}

// TierStats implements oram.TieredStore.
func (st *Store) TierStats() oram.TierStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// ResetTierStats implements oram.TieredStore.
func (st *Store) ResetTierStats() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.stats = oram.TierStats{}
	st.statsGen++
}

// checkBucket validates bucket coordinates (oram.bucketRange's rule).
func (st *Store) checkBucket(level int, node uint64) error {
	if level < 0 || level >= st.geom.Levels() {
		return fmt.Errorf("diskstore: level %d out of range [0,%d)", level, st.geom.Levels())
	}
	if node >= 1<<uint(level) {
		return fmt.Errorf("diskstore: node %d out of range at level %d", node, level)
	}
	return nil
}

// takeIOErrLocked surfaces a sticky background flush/evict error.
func (st *Store) takeIOErrLocked() error { return st.ioErr }

// markHeaderDirtyLocked forces the on-disk clean flag to 0 — durably —
// before the first record write of a cycle, so a crash anywhere in the
// write-behind window is detected at the next Open.
func (st *Store) markHeaderDirtyLocked() error {
	if !st.clean {
		return nil
	}
	if err := st.writeHeader(st.epoch, false); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	st.clean = false
	return nil
}

// writeEntryLocked stamps and positionally writes one record (no fsync).
// Bodies reserve crcLen capacity, so stamping extends in place.
func (st *Store) writeEntryLocked(e *entry) error {
	rec := e.body[:len(e.body)+crcLen]
	stampRecord(rec)
	st.diskSeq++
	if _, err := st.f.WriteAt(rec, st.recOff(e.level, e.node)); err != nil {
		return fmt.Errorf("diskstore: write bucket (%d,%d): %w", e.level, e.node, err)
	}
	return nil
}

// markEntryDirtyLocked queues e for the write-behind flusher, waking it
// once enough dirt has coalesced.
func (st *Store) markEntryDirtyLocked(e *entry) {
	e.dirty = true
	if e.prefetched {
		e.prefetched = false
		st.pfBytes -= int64(len(e.body))
	}
	if !e.queued {
		e.queued = true
		st.dq = append(st.dq, e)
	}
	if len(st.dq) >= flushThreshold {
		select {
		case st.flushWake <- struct{}{}:
		default:
		}
	}
}

// flushAllLocked drains the dirty queue to disk (no fsync — Sync adds
// durability).
func (st *Store) flushAllLocked() error {
	for len(st.dq) > 0 {
		e := st.dq[0]
		st.dq = st.dq[1:]
		e.queued = false
		if !e.dirty {
			continue
		}
		if err := st.writeEntryLocked(e); err != nil {
			return err
		}
		e.dirty = false
	}
	return nil
}

// flusher is the write-behind goroutine: woken when dirty buckets
// coalesce past the threshold, it batches them to disk so client writes
// return without touching the file.
func (st *Store) flusher() {
	defer st.wg.Done()
	for {
		select {
		case <-st.stop:
			return
		case <-st.flushWake:
			st.mu.Lock()
			if st.ioErr == nil {
				if err := st.flushAllLocked(); err != nil {
					st.ioErr = err
				}
			}
			st.mu.Unlock()
		}
	}
}

// insertLocked adds a fresh entry to the cache and evicts past the
// budget (LRU; dirty victims are written out first, so eviction never
// loses data).
func (st *Store) insertLocked(e *entry) error {
	st.cache[e.key] = e
	e.elem = st.lru.PushFront(e)
	st.used += int64(len(e.body))
	if st.budget <= 0 {
		return nil
	}
	for st.used > st.budget {
		el := st.lru.Back()
		if el == nil {
			return nil
		}
		v := el.Value.(*entry)
		if v == e {
			// Never evict the bucket being faulted in.
			if st.lru.Len() == 1 {
				return nil
			}
			st.lru.MoveToFront(el)
			continue
		}
		if v.dirty {
			if err := st.writeEntryLocked(v); err != nil {
				return err
			}
			v.dirty = false
		}
		delete(st.cache, v.key)
		st.lru.Remove(v.elem)
		st.used -= int64(len(v.body))
		if v.prefetched {
			st.pfBytes -= int64(len(v.body))
		}
	}
	return nil
}

// newEntry builds a cache entry whose body copies rec's body bytes
// (reserving CRC capacity for in-place stamping at flush time).
func (st *Store) newEntry(level int, node uint64, rec []byte) *entry {
	bl := bodyLen(st.geom.BucketSize(level), st.stride)
	body := make([]byte, bl, bl+crcLen)
	if rec != nil {
		copy(body, rec)
	}
	return &entry{key: bucketKey(level, node), level: level, node: node, body: body}
}

// entryFor returns bucket (level, node)'s cached entry, faulting it from
// disk on a miss — the demand path: the miss is counted, the pread is
// timed as demand stall, and a CRC failure is a hard error (torn records
// are never decoded). Called with mu held; drops and reacquires it around
// the disk read. The second return reports a cache hit.
func (st *Store) entryFor(level int, node uint64) (*entry, bool, error) {
	// A leaf-level lookup pins where the client is in the hinted plan —
	// the prefetch worker paces its look-ahead window against pfDemand.
	if st.pfMap != nil && level == st.geom.Levels()-1 {
		if idx, ok := st.pfMap[node]; ok && idx > st.pfDemand {
			st.pfDemand = idx
		}
	}
	key := bucketKey(level, node)
	if e, ok := st.cache[key]; ok {
		st.stats.Hits++
		if e.prefetched {
			if e.pfGen == st.statsGen {
				st.stats.PrefetchUseful++
			}
			e.prefetched = false
			st.pfBytes -= int64(len(e.body))
		}
		st.lru.MoveToFront(e.elem)
		return e, true, nil
	}
	st.stats.Misses++
	st.mu.Unlock()
	t0 := time.Now()
	rec := st.demandScratch[level]
	_, err := st.f.ReadAt(rec, st.recOff(level, node))
	if err == nil {
		err = verifyRecord(rec)
	}
	stall := time.Since(t0)
	st.mu.Lock()
	st.stats.DemandStallNs += stall.Nanoseconds()
	if err != nil {
		return nil, false, fmt.Errorf("diskstore: bucket (%d,%d): %w", level, node, err)
	}
	// The prefetcher may have faulted the bucket in while we read; its
	// copy is identical (the client — the only writer — is right here).
	if e, ok := st.cache[key]; ok {
		return e, false, nil
	}
	e := st.newEntry(level, node, rec)
	if err := st.insertLocked(e); err != nil {
		st.ioErr = err
		return nil, false, err
	}
	return e, false, nil
}

// decodeSlot opens body slot k into dst with PayloadStore's exact
// semantics: dummies carry a nil payload; real payloads decode (unsealing
// when sealed) into the capacity of dst's existing Payload when possible.
func (st *Store) decodeSlot(body []byte, k int, dst *oram.Slot) error {
	id, leaf, raw := slotAt(body, k, st.stride)
	dst.ID = oram.BlockID(id)
	dst.Leaf = oram.Leaf(leaf)
	if dst.ID == oram.DummyID {
		dst.Payload = nil
		return nil
	}
	bs := st.geom.BlockSize()
	if st.inplace != nil {
		out := payloadInto(dst, bs)
		if err := st.inplace.OpenTo(out, raw); err != nil {
			return fmt.Errorf("diskstore: open slot %d: %w", k, err)
		}
		dst.Payload = out
		return nil
	}
	if st.sealer != nil {
		plain, err := st.sealer.Open(raw)
		if err != nil {
			return fmt.Errorf("diskstore: open slot %d: %w", k, err)
		}
		dst.Payload = plain
		return nil
	}
	out := payloadInto(dst, bs)
	copy(out, raw)
	dst.Payload = out
	return nil
}

// payloadInto mirrors oram's payloadDst: reuse dst.Payload's capacity
// when big enough, allocate otherwise.
func payloadInto(dst *oram.Slot, n int) []byte {
	if cap(dst.Payload) >= n {
		return dst.Payload[:n]
	}
	return make([]byte, n)
}

// encodeSlot seals src into body slot k with PayloadStore's exact write
// semantics: dummies store zeroed payload bytes, a real block with a nil
// payload stores a zero-filled row.
func (st *Store) encodeSlot(body []byte, k int, src oram.Slot) error {
	off := k * (slotMeta + st.stride)
	binary.LittleEndian.PutUint64(body[off:], uint64(src.ID))
	binary.LittleEndian.PutUint64(body[off+8:], uint64(src.Leaf))
	raw := body[off+slotMeta : off+slotMeta+st.stride]
	if src.ID == oram.DummyID {
		for j := range raw {
			raw[j] = 0
		}
		return nil
	}
	if src.Payload == nil {
		src.Payload = st.zeroBlock
	}
	if len(src.Payload) != st.geom.BlockSize() {
		return fmt.Errorf("diskstore: payload len %d != block size %d", len(src.Payload), st.geom.BlockSize())
	}
	if st.inplace != nil {
		if err := st.inplace.SealTo(raw, src.Payload); err != nil {
			return fmt.Errorf("diskstore: seal slot %d: %w", k, err)
		}
		return nil
	}
	if st.sealer != nil {
		sealed, err := st.sealer.Seal(src.Payload)
		if err != nil {
			return fmt.Errorf("diskstore: seal slot %d: %w", k, err)
		}
		copy(raw, sealed)
		return nil
	}
	copy(raw, src.Payload)
	return nil
}

// readBucketLocked serves one validated bucket read (demand path).
func (st *Store) readBucketLocked(level int, node uint64, dst []oram.Slot) error {
	if err := st.takeIOErrLocked(); err != nil {
		return err
	}
	e, _, err := st.entryFor(level, node)
	if err != nil {
		return err
	}
	for k := range dst {
		if err := st.decodeSlot(e.body, k, &dst[k]); err != nil {
			return err
		}
	}
	return nil
}

// writeBucketLocked serves one validated whole-bucket overwrite: the
// record needs no read-modify-write, so a cache miss here costs no disk
// read — the entry is created dirty and flushed behind.
func (st *Store) writeBucketLocked(level int, node uint64, src []oram.Slot) error {
	if err := st.takeIOErrLocked(); err != nil {
		return err
	}
	if err := st.markHeaderDirtyLocked(); err != nil {
		return err
	}
	key := bucketKey(level, node)
	e, ok := st.cache[key]
	if !ok {
		e = st.newEntry(level, node, nil)
		if err := st.insertLocked(e); err != nil {
			st.ioErr = err
			return err
		}
	} else {
		st.lru.MoveToFront(e.elem)
	}
	st.markEntryDirtyLocked(e)
	for k := range src {
		if err := st.encodeSlot(e.body, k, src[k]); err != nil {
			return err
		}
	}
	return nil
}

// ReadBucket implements oram.Store.
func (st *Store) ReadBucket(level int, node uint64, dst []oram.Slot) error {
	if err := st.checkBucket(level, node); err != nil {
		return err
	}
	if z := st.geom.BucketSize(level); len(dst) != z {
		return fmt.Errorf("diskstore: ReadBucket dst len %d != bucket size %d", len(dst), z)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.readBucketLocked(level, node, dst)
}

// WriteBucket implements oram.Store.
func (st *Store) WriteBucket(level int, node uint64, src []oram.Slot) error {
	if err := st.checkBucket(level, node); err != nil {
		return err
	}
	if z := st.geom.BucketSize(level); len(src) != z {
		return fmt.Errorf("diskstore: WriteBucket src len %d != bucket size %d", len(src), z)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.writeBucketLocked(level, node, src)
}

// ReadSlot implements oram.Store. The record is faulted at bucket
// granularity (one hit/miss per record, like ReadBucket).
func (st *Store) ReadSlot(level int, node uint64, slot int, dst *oram.Slot) error {
	if err := st.checkBucket(level, node); err != nil {
		return err
	}
	if slot < 0 || slot >= st.geom.BucketSize(level) {
		return fmt.Errorf("diskstore: slot %d out of range at level %d", slot, level)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.takeIOErrLocked(); err != nil {
		return err
	}
	e, _, err := st.entryFor(level, node)
	if err != nil {
		return err
	}
	return st.decodeSlot(e.body, slot, dst)
}

// WriteSlot implements oram.Store: a read-modify-write of the record (the
// rest of the bucket must survive), so a miss faults the record in first.
func (st *Store) WriteSlot(level int, node uint64, slot int, src oram.Slot) error {
	if err := st.checkBucket(level, node); err != nil {
		return err
	}
	if slot < 0 || slot >= st.geom.BucketSize(level) {
		return fmt.Errorf("diskstore: slot %d out of range at level %d", slot, level)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.takeIOErrLocked(); err != nil {
		return err
	}
	if err := st.markHeaderDirtyLocked(); err != nil {
		return err
	}
	e, _, err := st.entryFor(level, node)
	if err != nil {
		return err
	}
	st.markEntryDirtyLocked(e)
	return st.encodeSlot(e.body, slot, src)
}

// ReadPath implements oram.PathStore (the serial per-level loop — the
// cache is the win here, not I/O coalescing, and CountingStore charges
// identically either way).
func (st *Store) ReadPath(leaf oram.Leaf, dst [][]oram.Slot) error {
	if !st.geom.ValidLeaf(leaf) {
		return fmt.Errorf("diskstore: ReadPath: invalid leaf %d", leaf)
	}
	if len(dst) != st.geom.Levels() {
		return fmt.Errorf("diskstore: ReadPath dst has %d levels, tree has %d", len(dst), st.geom.Levels())
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for lvl := range dst {
		if z := st.geom.BucketSize(lvl); len(dst[lvl]) != z {
			return fmt.Errorf("diskstore: ReadBucket dst len %d != bucket size %d", len(dst[lvl]), z)
		}
		if err := st.readBucketLocked(lvl, st.geom.NodeAt(leaf, lvl), dst[lvl]); err != nil {
			return err
		}
	}
	return nil
}

// WritePath implements oram.PathStore.
func (st *Store) WritePath(leaf oram.Leaf, src [][]oram.Slot) error {
	if !st.geom.ValidLeaf(leaf) {
		return fmt.Errorf("diskstore: WritePath: invalid leaf %d", leaf)
	}
	if len(src) != st.geom.Levels() {
		return fmt.Errorf("diskstore: WritePath src has %d levels, tree has %d", len(src), st.geom.Levels())
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for lvl := range src {
		if z := st.geom.BucketSize(lvl); len(src[lvl]) != z {
			return fmt.Errorf("diskstore: WriteBucket src len %d != bucket size %d", len(src[lvl]), z)
		}
		if err := st.writeBucketLocked(lvl, st.geom.NodeAt(leaf, lvl), src[lvl]); err != nil {
			return err
		}
	}
	return nil
}

// checkRefs validates a batched bucket request.
func (st *Store) checkRefs(op string, refs []oram.BucketRef, bufs [][]oram.Slot) error {
	if len(refs) != len(bufs) {
		return fmt.Errorf("diskstore: %s got %d refs, %d buffers", op, len(refs), len(bufs))
	}
	for i, r := range refs {
		if err := st.checkBucket(r.Level, r.Node); err != nil {
			return err
		}
		if z := st.geom.BucketSize(r.Level); len(bufs[i]) != z {
			return fmt.Errorf("diskstore: %s buffer %d has %d slots, bucket size is %d", op, i, len(bufs[i]), z)
		}
	}
	return nil
}

// ReadBuckets implements oram.BatchStore.
func (st *Store) ReadBuckets(refs []oram.BucketRef, dst [][]oram.Slot) error {
	if err := st.checkRefs("ReadBuckets", refs, dst); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, r := range refs {
		if err := st.readBucketLocked(r.Level, r.Node, dst[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBuckets implements oram.BatchStore.
func (st *Store) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	if err := st.checkRefs("WriteBuckets", refs, src); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, r := range refs {
		if err := st.writeBucketLocked(r.Level, r.Node, src[i]); err != nil {
			return err
		}
	}
	return nil
}

// BatchNative implements the oram.BatchNative probe: batches unroll to
// per-bucket cache operations here, exactly like a local serial store, so
// the multipath client should skip its batch buffers (this also keeps the
// client's branch choices — and hence byte-identity with the in-memory
// serial store — aligned).
func (st *Store) BatchNative() bool { return false }

// Sync flushes every dirty bucket, fsyncs the arena and marks the header
// clean under a fresh epoch — the checkpoint/durability point.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.syncLocked()
}

func (st *Store) syncLocked() error {
	if err := st.takeIOErrLocked(); err != nil {
		return err
	}
	if err := st.flushAllLocked(); err != nil {
		st.ioErr = err
		return err
	}
	if st.clean {
		return nil
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	st.epoch++
	if err := st.writeHeader(st.epoch, true); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	st.clean = true
	return nil
}

// stopWorkers makes Close/Abandon idempotent and joins the goroutines.
func (st *Store) stopWorkers() bool {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return false
	}
	st.closed = true
	st.mu.Unlock()
	close(st.stop)
	st.wg.Wait()
	return true
}

// Close stops the workers, syncs the arena clean and closes the file.
func (st *Store) Close() error {
	if !st.stopWorkers() {
		return nil
	}
	st.mu.Lock()
	err := st.syncLocked()
	st.mu.Unlock()
	if cerr := st.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("diskstore: %w", cerr)
	}
	return err
}

// Abandon is the chaos hook: drop the store without flushing or syncing,
// as a killed process would. If any write happened since the last Sync
// the on-disk header is still marked dirty, so the next Open fails with
// ErrUnclean instead of serving a possibly-blended tree.
func (st *Store) Abandon() {
	if !st.stopWorkers() {
		return
	}
	st.f.Close()
}

// offsetWriter adapts sequential buffered writes at a file offset.
type offsetWriter struct {
	f   *os.File
	off int64
	buf []byte
}

func newOffsetWriter(f *os.File, off int64) *offsetWriter {
	return &offsetWriter{f: f, off: off, buf: make([]byte, 0, 1<<20)}
}

func (w *offsetWriter) Write(p []byte) (int, error) {
	if len(w.buf)+len(p) > cap(w.buf) {
		if err := w.Flush(); err != nil {
			return 0, err
		}
	}
	if len(p) >= cap(w.buf) {
		n, err := w.f.WriteAt(p, w.off)
		w.off += int64(n)
		return n, err
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *offsetWriter) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.f.WriteAt(w.buf, w.off)
	w.off += int64(n)
	w.buf = w.buf[:0]
	return err
}

var _ io.Writer = (*offsetWriter)(nil)
