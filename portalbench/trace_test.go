package main

import (
	"io"
	"log"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	sp := func(id, parent uint64, name string, start, end int64) span {
		return span{Req: 1, ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	// A gateway request whose first forward attempt failed and was retried
	// on the other backend, with a concurrent flush-like child overlapping
	// the retry and a child that outlives its parent.
	spans := []span{
		sp(1, 0, spanClientOp, 0, 100),
		sp(2, 1, spanClientRT, 10, 90),
		sp(3, 2, spanGateway, 15, 85),
		sp(4, 3, spanForward, 20, 40), // failed attempt
		sp(5, 3, spanForward, 45, 80), // retry
		sp(6, 3, "flush", 70, 84),     // overlaps the retry by 10
		sp(7, 5, spanServer, 50, 75),
		sp(8, 7, spanProvider, 55, 70),
		sp(9, 8, spanService, 60, 95), // clipped to its parent
	}
	ix := indexSpans(spans)
	want := map[string]int64{
		spanClientOp: 100 - 80,
		spanClientRT: 80 - 70,
		spanGateway:  70 - (20 + 35 + 4),
		spanForward:  20 + (35 - 25), // both attempts
		spanServer:   25 - 15,
		spanProvider: 15 - 10,
		spanService:  35,
	}
	for name, w := range want {
		var got int64
		for _, s := range ix.byName[name] {
			got += selfTime(s, ix.children[s.ID])
		}
		if got != w {
			t.Errorf("%s self time %d, want %d", name, got, w)
		}
	}
	if got := selfTime(sp(1, 0, "x", 0, 10), nil); got != 10 {
		t.Fatalf("leaf self time %d", got)
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	in := tctx{req: 0xabc, span: 42}
	if got := parseTrace(formatTrace(in)); got != in {
		t.Fatalf("parse(format(%v)) = %v", in, got)
	}
	for _, bad := range []string{"", "x", "1-", "-2", "g-1"} {
		if got := parseTrace(bad); got.req != 0 {
			t.Fatalf("parseTrace(%q) = %v", bad, got)
		}
	}
}

// TestTracedRequestsLinkUp runs a traced gateway stack and a traced
// durable node and checks that every layer's spans join their request's
// tree: each non-root span's parent exists and belongs to the same
// request, down to the WAL appends.
func TestTracedRequestsLinkUp(t *testing.T) {
	x := &run{seed: 1, conns: 2, work: t.TempDir(), logger: log.New(io.Discard, "", 0)}
	for _, name := range []string{"discovery-gateway", "durable-session"} {
		x.sc = findScenario(name)
		if x.sc.prepare != nil {
			if err := x.sc.prepare(x); err != nil {
				t.Fatal(err)
			}
		}
		rec := newRecorder()
		lv, err := x.freshDeploy(rec)
		if err != nil {
			t.Fatal(err)
		}
		p := closedLoop(500*time.Millisecond, 2, lv.cl.sender())
		if err := x.finish(lv); err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 {
			t.Fatalf("%s: %v", name, p.firstErr)
		}
		byID := map[uint64]span{}
		spans := rec.snapshot()
		for _, s := range spans {
			byID[s.ID] = s
		}
		seen := map[string]int{}
		for _, s := range spans {
			if s.Req == 0 {
				continue // replay and compaction belong to no request
			}
			seen[s.Name]++
			if s.Name == spanClientOp {
				continue
			}
			parent, ok := byID[s.Parent]
			if !ok || parent.Req != s.Req || parent.Start > s.Start {
				t.Fatalf("%s: span %+v has no enclosing parent in its request", name, s)
			}
		}
		wantNames := []string{spanClientOp, spanClientRT, spanServer, spanProvider, spanService}
		if name == "discovery-gateway" {
			wantNames = append(wantNames, spanGateway, spanForward)
		} else {
			wantNames = append(wantNames, spanWALAppend)
		}
		for _, n := range wantNames {
			if seen[n] == 0 {
				t.Fatalf("%s: no %s spans (saw %v)", name, n, seen)
			}
		}
	}
}
