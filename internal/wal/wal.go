// Package wal implements the durable backend of the persistence seam: an
// append-only, length+CRC32-framed, fsync-batched (group-commit) write-ahead
// log with compacting snapshots and replay-on-boot recovery that tolerates a
// torn tail. See doc.go for a worked example and ROADMAP.md ("Persistence
// model") for the durability contract.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

const (
	// frameHeaderSize is the fixed per-record prefix: a uint32 LE payload
	// length followed by a uint32 LE CRC32 (IEEE) of the payload.
	frameHeaderSize = 8
	// MaxRecordSize bounds one record's payload (1-byte op length + op +
	// data). It matches the SOAP layer's 64 MiB message cap: nothing a
	// service can accept produces a larger mutation record. A frame whose
	// header claims more is treated as corruption, which keeps a torn
	// 4-byte header from provoking a giant allocation during recovery.
	MaxRecordSize = 64 << 20

	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".db"
	snapTmp    = "snap.tmp"
)

// Options configure a Log.
type Options struct {
	// NoSync disables fsync on append and snapshot. Records are still
	// written and framed, but durability is delegated to the OS page
	// cache — a machine crash can lose acknowledged writes. Intended for
	// tests and for measuring the fsync share of the durability tax.
	NoSync bool
}

// Log is an append-only write-ahead log over a directory of segment files
// (wal-<seq>.log) and at most one live snapshot (snap-<seq>.db). It is safe
// for concurrent use; concurrent Appends are group-committed (one fsync
// covers every record queued while the previous fsync was in flight).
//
// Lifecycle: Open, Replay exactly once (before the first Append), then
// Append/Compact freely, then Close.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File // active segment, opened O_APPEND
	seg     uint64   // active segment sequence
	size    int64    // bytes written to the active segment
	pending []byte   // encoded frames queued for the next group commit
	nQueued uint64   // records queued so far
	nSynced uint64   // records durable so far
	syncing bool     // a group commit is in flight
	closed  bool
	err     error // sticky: first write/sync failure poisons the log

	// compactMu serializes Compact calls without blocking Append.
	compactMu sync.Mutex

	snapSeq    uint64   // recovered snapshot generation; 0 = none
	replaySegs []uint64 // segments to replay on boot, ascending
	appended   bool     // an Append happened; Replay is no longer allowed
	recovery   Recovery // what Open cut; immutable after Open
}

// Recovery reports what Open discarded to bring the log back to a
// consistent prefix. The zero value means nothing was cut.
type Recovery struct {
	// TruncatedBytes were cut from the torn or corrupt tail of the last
	// replayed segment.
	TruncatedBytes int64
	// DroppedSegments were deleted because they followed the torn segment.
	DroppedSegments int
	// DiscardedSnapshots are newer snapshots that failed validation and
	// were passed over for an older generation.
	DiscardedSnapshots int
}

// String renders the report as one boot-log phrase.
func (r Recovery) String() string {
	return fmt.Sprintf("truncated %d torn-tail bytes, dropped %d segments, discarded %d snapshots",
		r.TruncatedBytes, r.DroppedSegments, r.DiscardedSnapshots)
}

// Recovery returns what Open cut while recovering the log.
func (l *Log) Recovery() Recovery { return l.recovery }

// Open creates or recovers the log in dir. Recovery picks the newest fully
// valid snapshot, discards segments it supersedes, and truncates the log at
// the first bad frame (torn tail): everything before the bad frame replays,
// everything after is dropped, and the log never refuses to start over tail
// corruption. Errors are only returned for environmental failures (the
// directory cannot be created or read).
func Open(dir string, opt Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opt: opt}
	l.cond = sync.NewCond(&l.mu)
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// recover scans the directory, selects the snapshot and segment set to
// replay, truncates a torn tail, and opens the active segment.
func (l *Log) recover() error {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var segs, snaps []uint64
	for _, e := range ents {
		if n, ok := parseName(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, n)
		} else if n, ok := parseName(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
		} else if e.Name() == snapTmp {
			// A crash mid-snapshot: the rename never happened, so the
			// previous generation is still authoritative.
			os.Remove(filepath.Join(l.dir, snapTmp))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	// Newest fully valid snapshot wins. Snapshots are fsynced before the
	// rename that makes them visible, so a bad frame here means
	// filesystem-level damage; fall back to an older generation (whose
	// superseded segments may still exist if the crash also interrupted
	// cleanup) rather than refusing to start.
	for i := len(snaps) - 1; i >= 0; i-- {
		if _, clean, err := scanFile(l.snapPath(snaps[i]), nil); err == nil && clean {
			l.snapSeq = snaps[i]
			break
		}
		l.recovery.DiscardedSnapshots++
	}

	// Replay the segments the snapshot does not supersede, in order. The
	// first bad frame truncates its segment and drops every later segment:
	// a record is only acknowledged after fsync, so anything at or past
	// the first bad frame was never acknowledged.
	active, haveActive := uint64(0), false
	for i, s := range segs {
		if s < l.snapSeq {
			continue
		}
		valid, clean, err := scanFile(l.segPath(s), nil)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.replaySegs = append(l.replaySegs, s)
		active, haveActive = s, true
		if !clean {
			st, err := os.Stat(l.segPath(s))
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			if err := os.Truncate(l.segPath(s), valid); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			l.recovery.TruncatedBytes = st.Size() - valid
			for _, drop := range segs[i+1:] {
				os.Remove(l.segPath(drop))
			}
			l.recovery.DroppedSegments = len(segs) - i - 1
			break
		}
	}
	if !haveActive {
		active = l.snapSeq
		if active == 0 {
			active = 1
		}
		l.replaySegs = append(l.replaySegs, active)
	}
	f, err := os.OpenFile(l.segPath(active), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.seg, l.size = f, active, st.Size()
	if !haveActive {
		// A brand-new segment file: make its directory entry durable so a
		// crash cannot lose the file out from under acknowledged appends.
		if err := syncDir(l.dir); err != nil && !l.opt.NoSync {
			f.Close()
			return err
		}
	}
	return nil
}

// Replay streams every recovered record — snapshot first, then log tail in
// append order — into fn. Records logged shortly before a snapshot may also
// appear in the tail, so fn must be idempotent (upsert semantics). Replay
// must run before the first Append; fn's first error aborts the replay and
// is returned. data is only valid until fn returns (the frame buffer is
// reused for the next record): fn must copy whatever it keeps.
func (l *Log) Replay(fn func(op string, data []byte) error) error {
	l.mu.Lock()
	if l.appended {
		l.mu.Unlock()
		return errors.New("wal: Replay must run before the first Append")
	}
	snapSeq := l.snapSeq
	segs := append([]uint64(nil), l.replaySegs...)
	l.mu.Unlock()
	if snapSeq > 0 {
		if _, _, err := scanFile(l.snapPath(snapSeq), fn); err != nil {
			return err
		}
	}
	for _, s := range segs {
		if _, _, err := scanFile(l.segPath(s), fn); err != nil {
			return err
		}
	}
	return nil
}

// Append durably writes one record and returns once it (and every record
// queued before it) has been fsynced: a nil return is the acknowledgement
// the recovery contract preserves. Concurrent appenders share fsyncs — each
// caller either leads a group commit or piggybacks on one in flight. op
// must be 1..255 bytes.
func (l *Log) Append(op string, data []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	var err error
	l.pending, err = appendFrame(l.pending, op, data)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.appended = true
	l.nQueued++
	my := l.nQueued
	for {
		if l.nSynced >= my {
			l.mu.Unlock()
			return nil
		}
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		if !l.syncing {
			l.flushLocked()
			continue
		}
		l.cond.Wait()
	}
}

// flushLocked drains the queue to the active segment as one write followed
// by one fsync — the group commit. Called with l.mu held and l.syncing
// false; the lock is released for the I/O and reacquired before returning.
func (l *Log) flushLocked() {
	batch := l.pending
	top := l.nQueued
	f := l.f
	l.pending = nil
	l.syncing = true
	l.mu.Unlock()
	_, err := f.Write(batch)
	if err == nil && !l.opt.NoSync {
		err = f.Sync()
	}
	l.mu.Lock()
	l.syncing = false
	l.size += int64(len(batch))
	if err != nil {
		l.err = fmt.Errorf("wal: %w", err)
	} else if top > l.nSynced {
		l.nSynced = top
	}
	l.cond.Broadcast()
}

// rotate seals the active segment and starts a new one, returning the new
// segment's sequence. Queued frames are flushed to the sealed segment first
// so no record spans the boundary.
func (l *Log) rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed {
			return 0, ErrClosed
		}
		if l.err != nil {
			return 0, l.err
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		if len(l.pending) > 0 {
			l.flushLocked()
			continue
		}
		break
	}
	old := l.f
	newSeg := l.seg + 1
	f, err := os.OpenFile(l.segPath(newSeg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.err = fmt.Errorf("wal: rotate: %w", err)
		return 0, l.err
	}
	if err := syncDir(l.dir); err != nil && !l.opt.NoSync {
		f.Close()
		l.err = err
		return 0, l.err
	}
	old.Close()
	l.f, l.seg, l.size = f, newSeg, 0
	return newSeg, nil
}

// Compact rotates to a fresh segment, then asks dump to re-emit the current
// state as records into a new snapshot; once the snapshot is durable
// (write, fsync, rename, fsync dir) every older segment and snapshot is
// deleted. dump runs concurrently with appends: records appended during the
// dump land in the new segment and are replayed over the snapshot on boot,
// which is why Replay requires idempotent apply functions. Concurrent
// Compacts serialize; an error leaves the previous generation intact.
func (l *Log) Compact(dump func(add func(op string, data []byte) error) error) error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	newSeg, err := l.rotate()
	if err != nil {
		return err
	}
	tmp := filepath.Join(l.dir, snapTmp)
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var frame []byte
	var addErr error
	add := func(op string, data []byte) error {
		frame, addErr = appendFrame(frame[:0], op, data)
		if addErr != nil {
			return addErr
		}
		_, addErr = w.Write(frame)
		return addErr
	}
	err = dump(add)
	if err == nil {
		err = addErr
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil && !l.opt.NoSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, l.snapPath(newSeg)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil && !l.opt.NoSync {
		return err
	}
	// The new snapshot supersedes everything before the segment it was cut
	// against. Deletion failures are harmless: recovery ignores superseded
	// files, and the next Compact retries the cleanup.
	ents, _ := os.ReadDir(l.dir)
	for _, e := range ents {
		if n, ok := parseName(e.Name(), segPrefix, segSuffix); ok && n < newSeg {
			os.Remove(l.segPath(n))
		} else if n, ok := parseName(e.Name(), snapPrefix, snapSuffix); ok && n < newSeg {
			os.Remove(l.snapPath(n))
		}
	}
	return nil
}

// Size returns the byte size of the active segment — the data a Compact
// would fold into a snapshot. Callers use it to pace compaction.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close flushes queued records and closes the active segment. Closing twice
// is safe; Append after Close returns ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	for {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		if len(l.pending) > 0 && l.err == nil {
			l.flushLocked()
			continue
		}
		break
	}
	l.closed = true
	l.cond.Broadcast()
	err := l.f.Close()
	if l.err != nil {
		return l.err
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// --- framing -----------------------------------------------------------------

// appendFrame encodes one record onto dst:
//
//	[uint32 LE payload length][uint32 LE CRC32(payload)][payload]
//	payload = [1-byte op length][op][data]
//
// On error dst is returned unchanged.
func appendFrame(dst []byte, op string, data []byte) ([]byte, error) {
	if len(op) == 0 || len(op) > 255 {
		return dst, fmt.Errorf("wal: op length %d out of range 1..255", len(op))
	}
	n := 1 + len(op) + len(data)
	if n > MaxRecordSize {
		return dst, fmt.Errorf("wal: record of %d bytes exceeds %d byte cap", n, MaxRecordSize)
	}
	start := len(dst)
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	dst = append(dst, hdr[:]...)
	dst = append(dst, byte(len(op)))
	dst = append(dst, op...)
	dst = append(dst, data...)
	crc := crc32.ChecksumIEEE(dst[start+frameHeaderSize:])
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc)
	return dst, nil
}

// scanFile frame-walks a file, calling fn (when non-nil) for each valid
// record. It returns the byte length of the valid prefix and whether the
// file ended cleanly at a frame boundary; a torn or corrupt frame stops the
// walk without error (that is the recovery policy), while fn's first error
// aborts the walk and is returned. One payload buffer serves every frame,
// so the data handed to fn is overwritten by the next record.
func scanFile(path string, fn func(op string, data []byte) error) (valid int64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, true, nil
		}
		return 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [frameHeaderSize]byte
	var buf []byte
	var op string
	var off int64
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, err == io.EOF, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > MaxRecordSize {
			return off, false, nil
		}
		if int(n) > cap(buf) {
			buf = make([]byte, n)
		}
		payload := buf[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, false, nil
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return off, false, nil
		}
		opLen := int(payload[0])
		if 1+opLen > len(payload) {
			return off, false, nil
		}
		if fn != nil {
			// Runs of one op share a single string.
			if op != string(payload[1:1+opLen]) {
				op = string(payload[1 : 1+opLen])
			}
			if err := fn(op, payload[1+opLen:]); err != nil {
				return off, false, err
			}
		}
		off += int64(frameHeaderSize) + int64(n)
	}
}

// --- file naming -------------------------------------------------------------

func (l *Log) segPath(n uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", segPrefix, n, segSuffix))
}

func (l *Log) snapPath(n uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", snapPrefix, n, snapSuffix))
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
