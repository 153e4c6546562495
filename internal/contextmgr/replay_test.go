package contextmgr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/wal"
)

// Shape of the seeded session log: sessionUsers × sessionsPerUser
// placeholders, each with sessionProps properties — 600 ctx.placeholder and
// 4800 ctx.setprop records, the log a durable portal node replays on boot.
const (
	sessionUsers    = 300
	sessionsPerUser = 2
	sessionProps    = 8
	sessionRecords  = sessionUsers * sessionsPerUser * (1 + sessionProps)
)

// writeSessionLog fills a new log in dir with the seeded session records.
func writeSessionLog(tb testing.TB, dir string) {
	tb.Helper()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	s := NewStore()
	if err := s.Persist(l); err != nil {
		tb.Fatal(err)
	}
	for u := 0; u < sessionUsers; u++ {
		user := fmt.Sprintf("user%03d", u)
		for i := 0; i < sessionsPerUser; i++ {
			session := fmt.Sprintf("session%d", i)
			if err := s.CreatePlaceholder(user, "problem", session); err != nil {
				tb.Fatal(err)
			}
			for p := 0; p < sessionProps; p++ {
				prop := fmt.Sprintf("prop%d", p)
				value := fmt.Sprintf("seed-7-%s/%s/%s", user, session, prop)
				if err := s.SetProp([]string{user, "problem", session}, prop, value); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	if err := s.ClosePersist(); err != nil {
		tb.Fatal(err)
	}
}

// recoverStore recovers a fresh store from the log in dir, the way a node
// boots, and closes the log again.
func recoverStore(tb testing.TB, dir string) *Store {
	tb.Helper()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	s := NewStore()
	if err := s.Persist(l); err != nil {
		tb.Fatal(err)
	}
	if err := s.ClosePersist(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkContextReplay times boot recovery of the seeded session log:
// wal.Open plus Store.Persist, which decodes and applies every record.
func BenchmarkContextReplay(b *testing.B) {
	dir := b.TempDir()
	writeSessionLog(b, dir)
	b.ReportAllocs()
	for b.Loop() {
		recoverStore(b, dir)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sessionRecords), "ns/record")
}

// captureStore is a persist.Store that keeps a copy of every record the
// store logs or dumps.
type captureStore struct{ recs [][]byte }

func (c *captureStore) Append(op string, data []byte) error {
	c.recs = append(c.recs, append([]byte(nil), data...))
	return nil
}
func (c *captureStore) Replay(func(string, []byte) error) error { return nil }
func (c *captureStore) Compact(dump func(add func(string, []byte) error) error) error {
	return dump(c.Append)
}
func (c *captureStore) Size() int64  { return 0 }
func (c *captureStore) Close() error { return nil }

// storeRecords returns the records a run of mutations logs, plus the
// snapshot records a compaction dumps, with property values chosen to need
// JSON escaping.
func storeRecords(tb testing.TB) [][]byte {
	tb.Helper()
	c := &captureStore{}
	s := NewStore()
	if err := s.Persist(c); err != nil {
		tb.Fatal(err)
	}
	s.SetTimeSource(func() time.Time { return time.Date(2002, 11, 16, 12, 0, 0, 123456789, time.FixedZone("", 5*3600)) })
	session := []string{"alice", "chem", "run1"}
	steps := []func() error{
		func() error { return s.CreatePlaceholder("alice", "chem", "run1") },
		func() error { return s.SetProp(session, "plain", "submitted") },
		func() error { return s.SetProp(session, "quote", `say "hi"`) },
		func() error { return s.SetProp(session, "backslash", `C:\jobs\run1`) },
		func() error { return s.SetProp(session, "markup", "<job>&</job>") },
		func() error { return s.SetProp(session, "newline", "line1\nline2\ttab") },
		func() error { return s.SetProp(session, "unicode", "Zürich — 東京 \u2028") },
		func() error { return s.SetProp(session, "invalid", "bad\xffutf8") },
		func() error { return s.Create(append(session[:3:3], "outputs")) },
		func() error { return s.Rename(append(session[:3:3], "outputs"), "results") },
		func() error { return s.Copy(session, "run2") },
		func() error { return s.RemoveProp(session, "plain") },
		func() error { return s.ClearProps([]string{"alice", "chem", "run2"}) },
		func() error { _, err := s.ArchiveSession("alice", "chem", "run1"); return err },
		func() error { return s.ImportDirectory(s.ExportDirectory()) },
		func() error { return s.Remove([]string{"alice", "chem", "run2"}) },
		s.CompactPersist,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			tb.Fatalf("step %d: %v", i, err)
		}
	}
	return c.recs
}

// FuzzRecordDecode is the differential check on the replay fast path:
// whenever decodeRecord accepts an input, encoding/json must accept it too
// and produce the same record.
func FuzzRecordDecode(f *testing.F) {
	for _, rec := range storeRecords(f) {
		f.Add(rec)
	}
	for _, s := range []string{
		`{}`,
		`null`,
		`{"name":null}`,
		`{"path":null}`,
		`{"path":[]}`,
		`{"path":["a","b"],"path":["c"]}`,
		`{"path":["a"],"path":[]}`,
		`{"name":"a","name":"b"}`,
		`{"Name":"mixed"}`,
		`{"NAME":"upper"}`,
		"{\"value\":\"raw \xff invalid\"}",
		`{"value":"\u00e9scaped"}`,
		`{"value":"tab	raw"}`,
		`{"seq":0}`,
		`{"seq":-0}`,
		`{"seq":01}`,
		`{"seq":1.5}`,
		`{"seq":1e3}`,
		`{"seq":9223372036854775807}`,
		`{"seq":9223372036854775808}`,
		`{"seq":-9223372036854775808}`,
		`{"seq":-9223372036854775809}`,
		`{"at":"2002-11-16T12:00:00Z"}`,
		`{"at":"2002-11-16T12:00:00.5+05:30","at":"2003-01-01T00:00:00Z"}`,
		`{"at":"0001-01-01T00:00:00Z"}`,
		`{"at":"not a time"}`,
		`{"at":null}`,
		`{"unknown":"x"}`,
		`{"tree":{"name":"alice","created":"2002-11-16T12:00:00Z"}}`,
		`{"name":"x"} `,
		`{"name":"x"}{}`,
		`{"name":"x",}`,
		` {"name":"x"}`,
		`{"name" : "x"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast record
		if !decodeRecord(data, &fast) {
			return
		}
		var slow record
		if err := json.Unmarshal(data, &slow); err != nil {
			t.Fatalf("fast path accepted %q; encoding/json refuses it: %v", data, err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("decode %q:\nfast %#v\njson %#v", data, fast, slow)
		}
	})
}

// TestRecordDecodeCoverage pins which of the store's own records take the
// fast path: every mutation record without an escaped character does, and
// snapshot trees never do.
func TestRecordDecodeCoverage(t *testing.T) {
	for _, data := range storeRecords(t) {
		var rec record
		fast := decodeRecord(data, &rec)
		var probe struct{ Tree json.RawMessage }
		if err := json.Unmarshal(data, &probe); err != nil {
			t.Fatal(err)
		}
		if want := probe.Tree == nil && !bytes.Contains(data, []byte(`\`)); fast != want {
			t.Errorf("decodeRecord(%s) = %v, want %v", data, fast, want)
		}
	}
}
