package contextmgr

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestStoreRoundTrip restarts the context store across the full mutation
// surface — placeholder creation, properties, subtree create/copy, archive,
// archive removal, a compacting snapshot, and post-snapshot tail writes —
// and asserts the recovered store matches, including exact creation and
// archival timestamps (replay pins the clock to each record's time).
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2002, 11, 16, 12, 0, 0, 0, time.UTC)
	var tick int64
	clock := func() time.Time {
		return base.Add(time.Duration(atomic.AddInt64(&tick, 1)) * time.Second)
	}

	open := func() *Store {
		t.Helper()
		l, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		s := NewStore()
		if err := s.Persist(l); err != nil {
			t.Fatalf("Persist: %v", err)
		}
		return s
	}

	s1 := open()
	s1.SetTimeSource(clock)
	session := []string{"alice", "chem", "run1"}
	if err := s1.CreatePlaceholder("alice", "chem", "run1"); err != nil {
		t.Fatal(err)
	}
	if err := s1.SetProp(session, "status", "submitted"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Create(append(session[:len(session):len(session)], "outputs")); err != nil {
		t.Fatal(err)
	}
	archID, err := s1.ArchiveSession("alice", "chem", "run1")
	if err != nil {
		t.Fatal(err)
	}
	// Mutations after the archive: the archive must keep the old state.
	if err := s1.SetProp(session, "status", "done"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Copy(session, "run1-copy"); err != nil {
		t.Fatal(err)
	}
	// A second archive, removed again: removal must survive the restart too.
	gone, err := s1.ArchiveSession("alice", "chem", "run1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.RemoveArchive(gone); err != nil {
		t.Fatal(err)
	}
	if err := s1.CompactPersist(); err != nil {
		t.Fatal(err)
	}
	// Tail writes after the snapshot: only in the log.
	if err := s1.CreatePlaceholder("bob", "phys", "exp1"); err != nil {
		t.Fatal(err)
	}
	wantCreated, err := s1.Created(session)
	if err != nil {
		t.Fatal(err)
	}
	wantArchives := s1.ListArchives("alice")
	if err := s1.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	defer s2.ClosePersist()
	got, err := s2.Created(session)
	if err != nil {
		t.Fatalf("session lost: %v", err)
	}
	if !got.Equal(wantCreated) {
		t.Fatalf("created time drifted across restart: %v, want %v", got, wantCreated)
	}
	if v, err := s2.GetProp(session, "status"); err != nil || v != "done" {
		t.Fatalf("status = %q, %v; want done", v, err)
	}
	if v, err := s2.GetProp([]string{"alice", "chem", "run1-copy"}, "status"); err != nil || v != "done" {
		t.Fatalf("copied session status = %q, %v; want done", v, err)
	}
	if !s2.Exists(append(session[:len(session):len(session)], "outputs")) {
		t.Fatal("outputs subtree lost")
	}
	if !s2.Exists([]string{"bob", "phys", "exp1"}) {
		t.Fatal("post-snapshot placeholder lost")
	}
	archives := s2.ListArchives("alice")
	if len(archives) != 1 || len(wantArchives) != 1 {
		t.Fatalf("recovered %d archives, want 1 (pre-restart view had %d)", len(archives), len(wantArchives))
	}
	if archives[0].ID != archID || !archives[0].When.Equal(wantArchives[0].When) {
		t.Fatalf("archive %s@%v, want %s@%v", archives[0].ID, archives[0].When, archID, wantArchives[0].When)
	}
	// Restoring the archive must resurrect the pre-archive state: status as
	// it was when archived, not as it was at shutdown.
	if err := s2.RestoreSession(archID); err != nil {
		t.Fatal(err)
	}
	if v, err := s2.GetProp(session, "status"); err != nil || v != "submitted" {
		t.Fatalf("restored status = %q, %v; want submitted", v, err)
	}
	// The archive-ID sequence recovered: new archives never reuse an ID.
	s2.SetTimeSource(clock)
	fresh, err := s2.ArchiveSession("alice", "chem", "run1")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == archID || fresh == gone {
		t.Fatalf("restarted store reused archive ID %s", fresh)
	}
}

// TestRestoreSurvivesRestart pins the replay ordering of restore records: a
// restore logged before shutdown must still be in effect after recovery.
func TestRestoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewStore()
	if err := s1.Persist(l); err != nil {
		t.Fatal(err)
	}
	session := []string{"alice", "chem", "run1"}
	if err := s1.CreatePlaceholder("alice", "chem", "run1"); err != nil {
		t.Fatal(err)
	}
	if err := s1.SetProp(session, "phase", "one"); err != nil {
		t.Fatal(err)
	}
	id, err := s1.ArchiveSession("alice", "chem", "run1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.SetProp(session, "phase", "two"); err != nil {
		t.Fatal(err)
	}
	if err := s1.RestoreSession(id); err != nil {
		t.Fatal(err)
	}
	if err := s1.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Persist(l2); err != nil {
		t.Fatal(err)
	}
	defer s2.ClosePersist()
	if v, err := s2.GetProp(session, "phase"); err != nil || v != "one" {
		t.Fatalf("phase = %q, %v after recovery; want the restored value one", v, err)
	}
}

// legacyRecord is record as encoded before At was tagged omitzero: every
// record without a timestamp carried "at":"0001-01-01T00:00:00Z".
type legacyRecord struct {
	Path    []string  `json:"path,omitempty"`
	Name    string    `json:"name,omitempty"`
	Value   string    `json:"value,omitempty"`
	User    string    `json:"user,omitempty"`
	Problem string    `json:"problem,omitempty"`
	Session string    `json:"session,omitempty"`
	ID      string    `json:"id,omitempty"`
	Seq     int64     `json:"seq,omitempty"`
	At      time.Time `json:"at,omitempty"`
	Data    string    `json:"data,omitempty"`
	Tree    *treeNode `json:"tree,omitempty"`
}

// TestReplayLegacyZeroAt rewrites a log into the legacy encoding and checks
// that replaying it recovers exactly the state the current encoding does.
func TestReplayLegacyZeroAt(t *testing.T) {
	dir, legacyDir := t.TempDir(), t.TempDir()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	if err := s.Persist(l); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2002, 11, 16, 12, 0, 0, 0, time.UTC)
	var tick int64
	s.SetTimeSource(func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) })
	session := []string{"alice", "chem", "run1"}
	for i, step := range []func() error{
		func() error { return s.CreatePlaceholder("alice", "chem", "run1") },
		func() error { return s.SetProp(session, "status", "submitted") },
		func() error { return s.Create(append(session[:3:3], "outputs")) },
		func() error { return s.Copy(session, "run2") },
		func() error { return s.Rename([]string{"alice", "chem", "run2"}, "run3") },
		func() error { return s.RemoveProp(session, "status") },
		func() error { _, err := s.ArchiveSession("alice", "chem", "run1"); return err },
		func() error { return s.SetProp(session, "status", "done") },
	} {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := s.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	// Re-encode every record in the legacy form.
	src, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := wal.Open(legacyDir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	zeroAts := 0
	if err := src.Replay(func(op string, data []byte) error {
		if bytes.Contains(data, []byte(`"at":"0001-01-01T00:00:00Z"`)) {
			t.Errorf("current encoding logs a zero time: %s %s", op, data)
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		old, err := json.Marshal(legacyRecord(rec))
		if err != nil {
			return err
		}
		zeroAts += bytes.Count(old, []byte(`"at":"0001-01-01T00:00:00Z"`))
		return dst.Append(op, old)
	}); err != nil {
		t.Fatal(err)
	}
	if zeroAts == 0 {
		t.Fatal("no legacy record carries a zero time")
	}
	if err := errors.Join(src.Close(), dst.Close()); err != nil {
		t.Fatal(err)
	}

	if got, want := storeState(t, recoverStore(t, legacyDir)), storeState(t, recoverStore(t, dir)); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy log recovered\n%v\nwant\n%v", got, want)
	}
}

// storeState is a store's full state as its snapshot records, keyed by op
// and name: the archive sequence, every user tree and every archive, with
// creation and archival times.
func storeState(t *testing.T, s *Store) map[string]string {
	t.Helper()
	state := map[string]string{}
	if err := s.dump(func(op string, data []byte) error {
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		state[op+" "+rec.Name+rec.ID] = string(data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return state
}
