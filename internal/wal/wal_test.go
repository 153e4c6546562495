package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type rec struct{ op, data string }

func openT(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendT(t *testing.T, l *Log, recs ...rec) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r.op, []byte(r.data)); err != nil {
			t.Fatalf("Append(%s): %v", r.op, err)
		}
	}
}

func replayT(t *testing.T, l *Log) []rec {
	t.Helper()
	var got []rec
	if err := l.Replay(func(op string, data []byte) error {
		got = append(got, rec{op, string(data)})
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

// activeSegment returns the path of the newest segment file.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files in %s (err %v)", dir, err)
	}
	return matches[len(matches)-1] // lexicographic == numeric (zero-padded)
}

// frameLen is the on-disk size of one record's frame.
func frameLen(r rec) int64 {
	return frameHeaderSize + 1 + int64(len(r.op)) + int64(len(r.data))
}

// TestRecovery is the table-driven edge-case suite: each case prepares a
// log directory (normal appends plus deliberate damage), reopens it, and
// asserts exactly which records survive and what Open reports it cut.
func TestRecovery(t *testing.T) {
	a, b, c := rec{"put", "a"}, rec{"put", "bb"}, rec{"del", "ccc"}
	cases := []struct {
		name  string
		setup func(t *testing.T, dir string)
		want  []rec
		cut   Recovery
	}{
		{
			name:  "empty log",
			setup: func(t *testing.T, dir string) {},
			want:  nil,
		},
		{
			name: "clean shutdown replays everything in order",
			setup: func(t *testing.T, dir string) {
				l := openT(t, dir)
				appendT(t, l, a, b, c)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			},
			want: []rec{a, b, c},
		},
		{
			name: "torn final frame is truncated, prefix survives",
			setup: func(t *testing.T, dir string) {
				l := openT(t, dir)
				appendT(t, l, a, b)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				// A crash mid-write: half a header trails the log.
				f, err := os.OpenFile(activeSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{0x10, 0x00, 0x00}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			want: []rec{a, b},
			cut:  Recovery{TruncatedBytes: 3},
		},
		{
			name: "torn final payload is truncated, prefix survives",
			setup: func(t *testing.T, dir string) {
				l := openT(t, dir)
				appendT(t, l, a)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				// A full header claiming 64 bytes, then only 5 of them.
				f, err := os.OpenFile(activeSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{64, 0, 0, 0, 1, 2, 3, 4, 'x', 'y', 'z', 'z', 'y'}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			want: []rec{a},
			cut:  Recovery{TruncatedBytes: 13},
		},
		{
			name: "CRC corruption mid-log truncates there, dropping the rest",
			setup: func(t *testing.T, dir string) {
				l := openT(t, dir)
				appendT(t, l, a, b, c)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				// Flip one byte inside b's payload: a replays, b fails its
				// CRC, and c — though intact on disk — is dropped, because
				// the log's guarantee is a consistent prefix, not a
				// hole-punched sequence.
				seg := activeSegment(t, dir)
				buf, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				buf[frameLen(a)+frameHeaderSize+1] ^= 0xFF
				if err := os.WriteFile(seg, buf, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: []rec{a},
			cut:  Recovery{TruncatedBytes: frameLen(b) + frameLen(c)},
		},
		{
			name: "insane frame length is corruption, not an allocation",
			setup: func(t *testing.T, dir string) {
				l := openT(t, dir)
				appendT(t, l, a)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(activeSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				// Length 0xFFFFFFFF with a matching-length lie.
				if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 'x'}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			want: []rec{a},
			cut:  Recovery{TruncatedBytes: 10},
		},
		{
			name: "records that grow then shrink replay intact from a reused buffer",
			setup: func(t *testing.T, dir string) {
				l := openT(t, dir)
				appendT(t, l, rec{"put", "xyz"}, rec{"put", strings.Repeat("0123456789", 7<<10)}, rec{"put", "short"})
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			},
			want: []rec{{"put", "xyz"}, {"put", strings.Repeat("0123456789", 7<<10)}, {"put", "short"}},
		},
		{
			name: "torn segment drops every later segment",
			setup: func(t *testing.T, dir string) {
				l := openT(t, dir)
				appendT(t, l, a)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(activeSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{7, 7, 7, 7}); err != nil {
					t.Fatal(err)
				}
				f.Close()
				// Two later segments that were never acknowledged past the tear.
				for seq := uint64(2); seq <= 3; seq++ {
					frame, err := appendFrame(nil, b.op, []byte(b.data))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile((&Log{dir: dir}).segPath(seq), frame, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: []rec{a},
			cut:  Recovery{TruncatedBytes: 4, DroppedSegments: 2},
		},
		{
			name: "snapshot replays first, then the tail, in order",
			setup: func(t *testing.T, dir string) {
				l := openT(t, dir)
				appendT(t, l, a, b)
				if err := l.Compact(func(add func(string, []byte) error) error {
					// The service's dump: current state as one record.
					return add("state", []byte("a+bb"))
				}); err != nil {
					t.Fatal(err)
				}
				appendT(t, l, c)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			},
			want: []rec{{"state", "a+bb"}, c},
		},
		{
			name: "torn tail after a snapshot keeps the snapshot and clean tail",
			setup: func(t *testing.T, dir string) {
				l := openT(t, dir)
				appendT(t, l, a)
				if err := l.Compact(func(add func(string, []byte) error) error {
					return add("state", []byte("a"))
				}); err != nil {
					t.Fatal(err)
				}
				appendT(t, l, b)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(activeSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{9, 9}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			want: []rec{{"state", "a"}, b},
			cut:  Recovery{TruncatedBytes: 2},
		},
		{
			name: "damaged newer snapshot is passed over for the older one",
			setup: func(t *testing.T, dir string) {
				l := openT(t, dir)
				appendT(t, l, a)
				if err := l.Compact(func(add func(string, []byte) error) error {
					return add("state", []byte("a"))
				}); err != nil {
					t.Fatal(err)
				}
				appendT(t, l, b)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile((&Log{dir: dir}).snapPath(99), []byte{1, 2, 3}, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: []rec{{"state", "a"}, b},
			cut:  Recovery{DiscardedSnapshots: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.setup(t, dir)
			l := openT(t, dir)
			defer l.Close()
			if got := l.Recovery(); got != tc.cut {
				t.Fatalf("Recovery() = %+v, want %+v", got, tc.cut)
			}
			got := replayT(t, l)
			if len(got) != len(tc.want) {
				t.Fatalf("replayed %d records, want %d: %v", len(got), len(tc.want), got)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("record %d = %v, want %v", i, got[i], tc.want[i])
				}
			}
			// The log must accept appends after any recovery, and a second
			// reopen must see the recovered prefix plus the new record.
			post := rec{"post", "recovery"}
			appendT(t, l, post)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2 := openT(t, dir)
			defer l2.Close()
			got2 := replayT(t, l2)
			if len(got2) != len(tc.want)+1 || got2[len(got2)-1] != post {
				t.Fatalf("after re-append, replayed %v", got2)
			}
		})
	}
}

func TestDoubleCloseAndUseAfterClose(t *testing.T) {
	l := openT(t, t.TempDir())
	appendT(t, l, rec{"a", "1"})
	if err := l.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append("a", nil); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

func TestReplayAfterAppendRefused(t *testing.T) {
	l := openT(t, t.TempDir())
	defer l.Close()
	appendT(t, l, rec{"a", "1"})
	if err := l.Replay(func(string, []byte) error { return nil }); err == nil {
		t.Fatal("Replay after Append should fail")
	}
}

func TestBadOps(t *testing.T) {
	l := openT(t, t.TempDir())
	defer l.Close()
	if err := l.Append("", nil); err == nil {
		t.Fatal("empty op accepted")
	}
	long := make([]byte, 256)
	for i := range long {
		long[i] = 'x'
	}
	if err := l.Append(string(long), nil); err == nil {
		t.Fatal("256-byte op accepted")
	}
	// A failed append must not poison the frame stream for later records.
	appendT(t, l, rec{"ok", "1"})
}

// TestConcurrentAppendGroupCommit drives parallel appenders through the
// group-commit path and verifies every acknowledged record replays exactly
// once, in a per-goroutine order consistent with append order.
func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.Append("w", []byte(fmt.Sprintf("%d/%d", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir)
	defer l2.Close()
	seen := map[string]int{}
	last := make([]int, writers)
	for i := range last {
		last[i] = -1
	}
	for _, r := range replayT(t, l2) {
		seen[r.data]++
		var w, i int
		fmt.Sscanf(r.data, "%d/%d", &w, &i)
		if i != last[w]+1 {
			t.Fatalf("writer %d: record %d replayed after %d", w, i, last[w])
		}
		last[w] = i
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), writers*perWriter)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("record %s replayed %d times", k, n)
		}
	}
}

// TestCompactUnderConcurrentAppends interleaves compactions with appends
// and verifies no acknowledged record is lost: every record either lands in
// the snapshot the dump cut or survives in the tail.
func TestCompactUnderConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	var mu sync.Mutex
	state := map[string]bool{} // the "service": a set of applied keys
	const writers, perWriter = 4, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("%d/%d", w, i)
				// Mutate-then-log under the state lock, like the services do.
				mu.Lock()
				if err := l.Append("add", []byte(key)); err != nil {
					mu.Unlock()
					t.Errorf("Append: %v", err)
					return
				}
				state[key] = true
				mu.Unlock()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			err := l.Compact(func(add func(string, []byte) error) error {
				mu.Lock()
				defer mu.Unlock()
				for k := range state {
					if err := add("has", []byte(k)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("Compact: %v", err)
			}
		}
	}()
	wg.Wait()
	<-done
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir)
	defer l2.Close()
	recovered := map[string]bool{}
	for _, r := range replayT(t, l2) {
		recovered[r.data] = true
	}
	for k := range state {
		if !recovered[k] {
			t.Fatalf("acknowledged record %s lost across compaction", k)
		}
	}
}
