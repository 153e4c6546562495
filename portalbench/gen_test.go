package main

import (
	"bytes"
	"testing"
)

// stream encodes the first n requests of a workload's seeded stream, plus
// its probes, exactly as the client puts them on the wire.
func stream(t *testing.T, name string, seed uint64, n int) []byte {
	t.Helper()
	x := &run{sc: findScenario(name), seed: seed}
	if x.sc.prepare != nil {
		if err := x.sc.prepare(x); err != nil {
			t.Fatal(err)
		}
	}
	m := x.sc.newModel(x)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		m.next().encode(&buf)
		if i%100 == 0 {
			m.probe().encode(&buf)
		}
	}
	return buf.Bytes()
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// Long enough to include discovery publishes and session creates.
			const n = 4500
			a, b := stream(t, sc.name, 7, n), stream(t, sc.name, 7, n)
			if !bytes.Equal(a, b) {
				t.Fatal("same seed gave different request streams")
			}
			if c := stream(t, sc.name, 8, n); bytes.Equal(a, c) {
				t.Fatal("different seeds gave the same request stream")
			}
		})
	}
}

func TestFig1MessageSizes(t *testing.T) {
	m := newFig1Model(3)
	lo, hi := 1<<30, 0
	for i := 0; i < 2000; i++ {
		var buf bytes.Buffer
		m.next().encode(&buf)
		lo, hi = min(lo, buf.Len()), max(hi, buf.Len())
	}
	if lo < 400 || hi > 3500 || hi < 2000 {
		t.Fatalf("generateScript envelopes span %d..%d bytes, want roughly 0.5-3 KB", lo, hi)
	}
}

func TestDiscoveryMix(t *testing.T) {
	d, err := newDiscoveryData(5)
	if err != nil {
		t.Fatal(err)
	}
	m := newDiscoveryModel(5, d)
	ops := map[string]int{}
	keys := map[string]bool{}
	const n = 100000
	for i := 0; i < n; i++ {
		r := m.next()
		ops[r.call.Method]++
		keys[r.call.Method+r.call.Params[0].Text] = true
	}
	if w := ops["saveService"]; w != n/discPublishPer {
		t.Fatalf("%d publishes in %d requests, want %d", w, n, n/discPublishPer)
	}
	for _, op := range []string{"findServiceByTModel", "getServiceDetail", "findBusiness"} {
		if ops[op] < n/10 {
			t.Fatalf("op mix %v starves %s", ops, op)
		}
	}
	// The key set is several times the 4096-entry cache; under Zipf the
	// hot keys repeat, but a long stream still reaches more distinct keys
	// than one cache holds.
	if discBusinesses+discTModels+discServices < 4*4096 {
		t.Fatal("inquiry key set is not several times the cache")
	}
	if len(keys) < 4096 || len(keys) > n/4 {
		t.Fatalf("%d distinct inquiry keys in %d requests", len(keys), n)
	}
}

func TestSessionMix(t *testing.T) {
	m := newSessionModel(9)
	ops := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		ops[m.next().call.Method]++
	}
	share := func(op string) float64 { return float64(ops[op]) / n }
	if r := share("getSessionProperty"); r < 0.65 || r > 0.75 {
		t.Fatalf("read share %.3f", r)
	}
	if w := share("setSessionProperty"); w < 0.20 || w > 0.30 {
		t.Fatalf("write share %.3f", w)
	}
	if c := share("createSessionContext"); c < 0.03 || c > 0.07 {
		t.Fatalf("create share %.3f", c)
	}
}
