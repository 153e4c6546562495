package persist_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/wal"
)

// TestNilBindingIsNoOp pins the seam's central convenience: services wired
// for persistence but started without -data hold a nil *Binding, and every
// call must be a cheap no-op rather than a panic.
func TestNilBindingIsNoOp(t *testing.T) {
	var b *persist.Binding
	if err := b.Log("op", map[string]int{"x": 1}); err != nil {
		t.Fatalf("nil Log: %v", err)
	}
	if err := b.Compact(); err != nil {
		t.Fatalf("nil Compact: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestLogEncodeErrorNotAppended(t *testing.T) {
	l, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := persist.Bind(l, func(add func(string, []byte) error) error { return nil })
	if err := b.Log("bad", func() {}); err == nil { // funcs don't JSON-encode
		t.Fatal("unencodable value accepted")
	}
	if got := l.Size(); got != 0 {
		t.Fatalf("failed Log grew the store by %d bytes", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoCompaction drives Log past a tiny CompactAfter threshold and waits
// for the background compaction to shrink the active log, then verifies the
// snapshot round-trips through Replay with nothing lost.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// state is written by this goroutine and read by the background dump,
	// so it is guarded as a service guards its own state.
	var mu sync.Mutex
	state := map[string]string{}
	b := persist.Bind(l, func(add func(string, []byte) error) error {
		mu.Lock()
		defer mu.Unlock()
		for k, v := range state {
			if err := persist.AddJSON(add, "kv", map[string]string{"k": k, "v": v}); err != nil {
				return err
			}
		}
		return nil
	})
	b.CompactAfter = 256
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%02d", i)
		mu.Lock()
		state[k] = "value"
		mu.Unlock()
		if err := b.Log("kv", map[string]string{"k": k, "v": "value"}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Size() >= 2*b.CompactAfter {
		if time.Now().After(deadline) {
			t.Fatalf("active log never compacted; size %d", l.Size())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := map[string]string{}
	if err := l2.Replay(func(op string, data []byte) error {
		var kv map[string]string
		if err := json.Unmarshal(data, &kv); err != nil {
			return err
		}
		got[kv["k"]] = kv["v"]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(state) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(state))
	}
	for k, v := range state {
		if got[k] != v {
			t.Fatalf("key %s = %q after recovery, want %q", k, got[k], v)
		}
	}
}
