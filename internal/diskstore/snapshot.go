package diskstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Save/Load speak oram.PayloadStore's exact snapshot format (magic
// "LAORAMV1"+2, slot metadata, then the raw payload arena in linear slot
// order), so checkpoints written by an in-memory store restore into a
// disk-backed one and vice versa — laoramserve's LAORCKF1 files are
// backend-agnostic. Records on disk and linear slot order coincide
// (SlotIndex is layout order), so both passes stream sequentially.

// snapshotBody returns a stable view of bucket (level, node)'s body:
// the cached copy when resident (the client — the only mutator of body
// bytes — is blocked inside Save), else a CRC-verified read into scratch.
func (st *Store) snapshotBody(level int, node uint64, rec []byte) ([]byte, error) {
	st.mu.Lock()
	if err := st.takeIOErrLocked(); err != nil {
		st.mu.Unlock()
		return nil, err
	}
	if e, ok := st.cache[bucketKey(level, node)]; ok {
		st.mu.Unlock()
		return e.body, nil
	}
	st.mu.Unlock()
	if _, err := st.f.ReadAt(rec, st.recOff(level, node)); err != nil {
		return nil, fmt.Errorf("diskstore: bucket (%d,%d): %w", level, node, err)
	}
	if err := verifyRecord(rec); err != nil {
		return nil, fmt.Errorf("diskstore: bucket (%d,%d): %w", level, node, err)
	}
	return rec[:len(rec)-crcLen], nil
}

// Save implements oram.Snapshotter, emitting PayloadStore's byte format.
func (st *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var u64 [8]byte
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := bw.Write(u64[:])
		return err
	}
	if err := put(snapshotMagicPayload); err != nil {
		return err
	}
	if err := put(uint64(st.geom.TotalSlots())); err != nil {
		return err
	}
	if err := put(uint64(st.stride)); err != nil {
		return err
	}
	scratch := st.newScratch()
	// Pass 1: slot metadata in linear order; pass 2: the payload arena.
	for pass := 0; pass < 2; pass++ {
		for lvl := 0; lvl < st.geom.Levels(); lvl++ {
			z := st.geom.BucketSize(lvl)
			for node := uint64(0); node < uint64(1)<<uint(lvl); node++ {
				body, err := st.snapshotBody(lvl, node, scratch[lvl])
				if err != nil {
					return err
				}
				for k := 0; k < z; k++ {
					id, leaf, pay := slotAt(body, k, st.stride)
					if pass == 0 {
						if err := put(id); err != nil {
							return err
						}
						if err := put(leaf); err != nil {
							return err
						}
					} else if _, err := bw.Write(pay); err != nil {
						return err
					}
				}
			}
		}
	}
	return bw.Flush()
}

// Load implements oram.Snapshotter, restoring a PayloadStore-format
// snapshot by rewriting every record: header goes down dirty first, the
// cache (including unflushed dirt — all obsolete) is dropped, records
// stream sequentially, then the arena is fsynced clean under a new epoch.
// A crash anywhere inside leaves the dirty header in place, so the next
// Open refuses the blend.
func (st *Store) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	var u64 [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(u64[:]), nil
	}
	magic, err := get()
	if err != nil {
		return err
	}
	if magic != snapshotMagicPayload {
		return fmt.Errorf("diskstore: bad store snapshot magic %#x", magic)
	}
	n, err := get()
	if err != nil {
		return err
	}
	if n != uint64(st.geom.TotalSlots()) {
		return fmt.Errorf("diskstore: store snapshot has %d slots, geometry needs %d", n, st.geom.TotalSlots())
	}
	stride, err := get()
	if err != nil {
		return err
	}
	if stride != uint64(st.stride) {
		return fmt.Errorf("diskstore: store snapshot stride %d != %d (sealing mismatch?)", stride, st.stride)
	}
	ids := make([]uint64, n)
	leaves := make([]uint64, n)
	for i := range ids {
		if ids[i], err = get(); err != nil {
			return err
		}
		if leaves[i], err = get(); err != nil {
			return err
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.markHeaderDirtyLocked(); err != nil {
		return err
	}
	// Every cached bucket — dirty or not — is superseded by the snapshot.
	st.cache = make(map[int64]*entry)
	st.lru.Init()
	st.dq = nil
	st.used = 0
	st.pfBytes = 0
	st.diskSeq++ // every record is rewritten: in-flight prefetch reads are stale
	w := newOffsetWriter(st.f, headerLen)
	slot := 0
	for lvl := 0; lvl < st.geom.Levels(); lvl++ {
		z := st.geom.BucketSize(lvl)
		rec := make([]byte, recLen(z, st.stride))
		body := rec[:bodyLen(z, st.stride)]
		for node := uint64(0); node < uint64(1)<<uint(lvl); node++ {
			for k := 0; k < z; k++ {
				off := k * (slotMeta + st.stride)
				binary.LittleEndian.PutUint64(body[off:], ids[slot])
				binary.LittleEndian.PutUint64(body[off+8:], leaves[slot])
				if _, err := io.ReadFull(br, body[off+slotMeta:off+slotMeta+st.stride]); err != nil {
					return fmt.Errorf("diskstore: snapshot payload arena: %w", err)
				}
				slot++
			}
			stampRecord(rec)
			if _, err := w.Write(rec); err != nil {
				return fmt.Errorf("diskstore: restore bucket: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("diskstore: restore: %w", err)
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
	st.ioErr = nil // the arena was fully rewritten; prior flush errors are moot
	return nil
}
