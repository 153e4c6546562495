package main

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/contextmgr"
	"repro/internal/soap"
	"repro/internal/xmlutil"
)

// tamperRT rewrites the first response that contains old, once.
type tamperRT struct {
	base     http.RoundTripper
	old, new string
	done     atomic.Bool
}

func (t *tamperRT) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if bytes.Contains(body, []byte(t.old)) && t.done.CompareAndSwap(false, true) {
		body = bytes.Replace(body, []byte(t.old), []byte(t.new), 1)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// TestWrongResponseCountsAsFailed is the benchmark's self-test: one
// deliberately corrupted answer on a live stack must show up as exactly
// one failed operation.
func TestWrongResponseCountsAsFailed(t *testing.T) {
	n, err := startNode(nodeOptions{name: "portal", port: 0, logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	cl := newClient(n.l.base, 2, newFig1Model(1), nil)
	defer cl.close()
	tamper := &tamperRT{base: cl.hc.Transport, old: "#!/bin/sh", new: "#!/bin/sx"}
	cl.hc.Transport = tamper

	p := closedLoop(300*time.Millisecond, 2, cl.sender())
	attempted, failed := p.attempted, p.failed
	if !tamper.done.Load() {
		t.Fatal("no response was tampered with")
	}
	if failed != 1 || attempted < 10 {
		t.Fatalf("attempted=%d failed=%d, want exactly one failure", attempted, failed)
	}
	if err := p.firstErr; err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("failure %v, want the script oracle's", err)
	}
}

func textResponse(name, text string) *soap.Response {
	return &soap.Response{Returns: []soap.Value{soap.Str(name, text)}}
}

func TestOraclesRejectWrongAnswers(t *testing.T) {
	d, err := newDiscoveryData(2)
	if err != nil {
		t.Fatal(err)
	}
	dm := newDiscoveryModel(2, d)
	var detail *request
	for detail == nil {
		if r := dm.next(); r.call.Method == "getServiceDetail" {
			detail = r
		}
	}
	other := &d.services[(detail.index+1)%len(d.services)]
	el := xmlutil.New("businessService").SetAttr("serviceKey", other.key).SetAttr("businessKey", other.business)
	el.AddText("name", other.name)
	if err := dm.check(detail, &soap.Response{Returns: []soap.Value{soap.XMLDoc("service", el)}}); err == nil {
		t.Fatal("discovery oracle accepted another service's detail")
	}

	sm := newSessionModel(2)
	var read *request
	for read == nil {
		if r := sm.next(); r.call.Method == "getSessionProperty" {
			read = r
		}
	}
	if err := sm.check(read, textResponse("value", "never-written")); err == nil {
		t.Fatal("session oracle accepted a value nobody wrote")
	}
	if err := sm.check(read, textResponse("value", seedValue(2, read.key))); err != nil {
		t.Fatalf("session oracle rejected the seeded value: %v", err)
	}
}

// TestRecoveryCheckCatchesLostWrite replays a store that lacks one
// acknowledged write.
func TestRecoveryCheckCatchesLostWrite(t *testing.T) {
	m := newSessionModel(4)
	var w *request
	for w == nil {
		if r := m.next(); r.call.Method == "setSessionProperty" {
			w = r
		}
	}
	w.sent, w.acked = time.Now(), time.Now()
	if err := m.check(w, textResponse("ok", "true")); err != nil {
		t.Fatal(err)
	}
	st := contextmgr.NewStore()
	if err := m.seedStore(st); err != nil {
		t.Fatal(err)
	}
	if err := m.verifyRecovered(st); err == nil || !strings.Contains(err.Error(), "last acknowledged") {
		t.Fatalf("verifyRecovered = %v, want a lost-write failure", err)
	}
	user, session, prop := splitKey(w.key)
	if err := st.SetProp([]string{user, sessProblem, session}, prop, w.call.Params[4].Text); err != nil {
		t.Fatal(err)
	}
	if err := m.verifyRecovered(st); err != nil {
		t.Fatalf("verifyRecovered after applying the write: %v", err)
	}
}

func splitKey(k string) (user, session, prop string) {
	f := strings.Split(k, "/")
	return f[0], f[1], f[2]
}

func TestFinalAllowed(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ws := []*sessWrite{
		{value: "a", sent: at(0), acked: at(10)},
		{value: "b", sent: at(5), acked: at(15)},  // overlaps a
		{value: "c", sent: at(20), acked: at(30)}, // after both
	}
	if finalAllowed(ws, "seed", "a") || finalAllowed(ws, "seed", "b") || finalAllowed(ws, "seed", "seed") {
		t.Fatal("a value superseded by a later acknowledged write was allowed")
	}
	if !finalAllowed(ws, "seed", "c") {
		t.Fatal("the last write was not allowed")
	}
	if !finalAllowed(ws[:2], "seed", "a") || !finalAllowed(ws[:2], "seed", "b") {
		t.Fatal("either of two concurrent writes may be last")
	}
	if !finalAllowed(nil, "seed", "seed") {
		t.Fatal("an unwritten key must keep its seed")
	}
}
