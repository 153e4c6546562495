// Worked example: a durable counter service on top of the log.
//
// The log stores opaque (op, data) records; the service defines what they
// mean. A counter that must survive kill -9 writes one record per increment
// and replays them on boot:
//
//	l, err := wal.Open(dir, wal.Options{})
//	if err != nil {
//		return err
//	}
//	var count int64
//	err = l.Replay(func(op string, data []byte) error {
//		switch op {
//		case "set": // snapshot record: absolute value
//			count, _ = strconv.ParseInt(string(data), 10, 64)
//		case "inc": // log record: one increment
//			count++
//		}
//		return nil
//	})
//
// Replay streams the newest snapshot first, then the log tail in append
// order. A record appended just before a snapshot was cut may appear in
// both, so apply functions must be idempotent — here "set" is an absolute
// value, so replaying an overlapping "inc" after it is the only hazard, and
// the log's rotate-before-dump ordering guarantees any "inc" in the tail is
// NOT yet folded into the "set" (see Compact). Keyed upserts, the common
// case, are naturally idempotent. data is only valid until the callback
// returns, so the "set" case parses it in place rather than keeping it.
//
// Each increment is acknowledged only after the record is fsynced; the
// group commit means a thousand concurrent increments cost a handful of
// fsyncs, not a thousand:
//
//	if err := l.Append("inc", nil); err != nil {
//		return err // not durable — do not acknowledge
//	}
//	count++ // now safe to expose
//
// Periodically, fold the log into a snapshot so recovery stays O(state)
// instead of O(history). Compact rotates to a fresh segment first, then
// dumps; appends proceed concurrently and land in the new segment:
//
//	if l.Size() > 4<<20 {
//		err := l.Compact(func(add func(op string, data []byte) error) error {
//			return add("set", []byte(strconv.FormatInt(count, 10)))
//		})
//	}
//
// On disk this leaves wal-<seq>.log segments and one snap-<seq>.db. A crash
// can tear the last frame of the active segment; Open truncates the tail at
// the first bad frame and starts anyway — by construction nothing at or
// past that frame was ever acknowledged. A crash during Compact leaves
// either the old generation (rename not yet durable) or the new one, never
// a mix. l.Recovery() reports what Open cut, for the boot log:
//
//	log.Printf("recovered counter log: %v", l.Recovery())
//
// The three portal stores (uddi, xmlregistry, contextmgr) use exactly this
// pattern through the persist.Store seam, with JSON-encoded records.
package wal
