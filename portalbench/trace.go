package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/persist"
	"repro/internal/soap"
)

// Span names, one per layer seam the benchmark wraps from its own files.
const (
	spanClientOp   = "client.op"       // encode, exchange, decode (root)
	spanClientRT   = "client.http"     // the client's http.RoundTripper
	spanGateway    = "gateway.http"    // http.Handler around Gateway.Handler()
	spanForward    = "gateway.forward" // gateway.Forwarder, one per attempt
	spanServer     = "rpc.server"      // http.Handler around Server.Handler()
	spanProvider   = "rpc.provider"    // outermost provider middleware
	spanService    = "rpc.service"     // innermost per-service middleware
	spanWALAppend  = "wal.append"      // persist.Store Append around *wal.Log
	spanWALReplay  = "wal.replay"
	spanWALCompact = "wal.compact"
)

// traceHeader carries "<request id>-<parent span id>" (hex) from one
// process-local hop to the next: the client's RoundTripper sets it, the
// handler wrappers read it, and the gateway's forward leg sets it again.
const traceHeader = "X-Portalbench-Trace"

// span is one timed interval at a layer seam. All spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	// current maps a goroutine id to the service span running on it.
	current sync.Map
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64    { return int64(time.Since(r.epoch)) }
func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far (the warm-up's).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tctx is the trace position carried in a context.Context.
type tctx struct{ req, span uint64 }

type tctxKey struct{}

func withTrace(ctx context.Context, t tctx) context.Context {
	return context.WithValue(ctx, tctxKey{}, t)
}

func traceFrom(ctx context.Context) tctx {
	t, _ := ctx.Value(tctxKey{}).(tctx)
	return t
}

func formatTrace(t tctx) string {
	return strconv.FormatUint(t.req, 16) + "-" + strconv.FormatUint(t.span, 16)
}

func parseTrace(h string) tctx {
	req, parent, ok := strings.Cut(h, "-")
	if !ok {
		return tctx{}
	}
	r, err1 := strconv.ParseUint(req, 16, 64)
	p, err2 := strconv.ParseUint(parent, 16, 64)
	if err1 != nil || err2 != nil {
		return tctx{}
	}
	return tctx{r, p}
}

// --- seam wrappers --------------------------------------------------------------

// clientRT is the client's traced http.RoundTripper. Its span runs from
// RoundTrip until the response body is drained or closed.
type clientRT struct {
	rec  *recorder
	base http.RoundTripper
}

func (c *clientRT) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := traceFrom(req.Context())
	id, t0 := c.rec.newID(), c.rec.now()
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, formatTrace(tctx{parent.req, id}))
	sp := span{Req: parent.req, ID: id, Parent: parent.span, Name: spanClientRT, Start: t0}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		sp.End = c.rec.now()
		sp.Attr = "error"
		c.rec.add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: c.rec, sp: sp}
	return resp, nil
}

// spanBody ends a client span when the body hits EOF or is closed.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	sp   span
	done bool
}

func (b *spanBody) finish() {
	if !b.done {
		b.done = true
		b.sp.End = b.rec.now()
		b.rec.add(b.sp)
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// propagateRT copies the trace position from the request context into the
// trace header; the gateway's forward leg uses it so backend spans link to
// the forward attempt that caused them.
type propagateRT struct{ base http.RoundTripper }

func (p *propagateRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if t := traceFrom(req.Context()); t.req != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, formatTrace(t))
	}
	return p.base.RoundTrip(req)
}

// handler wraps an http.Handler (Server.Handler() or Gateway.Handler())
// in a span named name, parented by the incoming trace header. Requests
// without the header (health probes, flush posts) are not recorded.
func (r *recorder) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent := parseTrace(req.Header.Get(traceHeader))
		if parent.req == 0 {
			next.ServeHTTP(w, req)
			return
		}
		id, t0 := r.newID(), r.now()
		next.ServeHTTP(w, req.WithContext(withTrace(req.Context(), tctx{parent.req, id})))
		r.add(span{Req: parent.req, ID: id, Parent: parent.span, Name: name, Start: t0, End: r.now()})
	})
}

// providerKey holds the provider span's position in core.Context values.
const providerKey = "portalbench.trace"

// providerMW is the outermost middleware a provider takes as an argument;
// the kernel's own stats, drain gate and recovery run outside it.
func (r *recorder) providerMW(next core.HandlerFunc) core.HandlerFunc {
	return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
		parent := traceFrom(ctx.Context())
		if parent.req == 0 {
			return next(ctx, args)
		}
		id, t0 := r.newID(), r.now()
		ctx.Set(providerKey, tctx{parent.req, id})
		vals, err := next(ctx, args)
		r.add(span{Req: parent.req, ID: id, Parent: parent.span, Name: spanProvider, Start: t0, End: r.now()})
		return vals, err
	}
}

// serviceMW is the innermost per-service middleware: its span is the
// handler itself (on a cache hit the handler, and this span, never run).
// It also binds the running goroutine to the span, so the Store wrapper
// can parent WAL appends the handler makes synchronously.
func (r *recorder) serviceMW(next core.HandlerFunc) core.HandlerFunc {
	return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
		parent, _ := ctx.Value(providerKey).(tctx)
		if parent.req == 0 {
			return next(ctx, args)
		}
		id, t0 := r.newID(), r.now()
		g := goid()
		r.current.Store(g, tctx{parent.req, id})
		vals, err := next(ctx, args)
		r.current.Delete(g)
		r.add(span{Req: parent.req, ID: id, Parent: parent.span, Name: spanService,
			Attr: ctx.ServiceNS + "#" + ctx.Operation, Start: t0, End: r.now()})
		return vals, err
	}
}

// goid returns the running goroutine's id, parsed from its stack header
// ("goroutine 123 [running]: ...").
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(bytes.TrimPrefix(buf[:n], []byte("goroutine ")))
	if len(f) == 0 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[0]), 10, 64)
	return id
}

// forwarder wraps the gateway's Forwarder: one span per attempt, tagged
// with the backend and whether the attempt failed.
type forwarder struct {
	rec   *recorder
	inner gateway.Forwarder
}

func (f *forwarder) Forward(ctx context.Context, backend, path, action string, body []byte, resp *bytes.Buffer) (gateway.ForwardResult, error) {
	parent := traceFrom(ctx)
	id, t0 := f.rec.newID(), f.rec.now()
	res, err := f.inner.Forward(withTrace(ctx, tctx{parent.req, id}), backend, path, action, body, resp)
	attr := backend
	if err != nil {
		attr += " error"
	}
	f.rec.add(span{Req: parent.req, ID: id, Parent: parent.span, Name: spanForward, Attr: attr, Start: t0, End: f.rec.now()})
	return res, err
}

// tracedStore wraps the persist.Store handed to a service (a *wal.Log) and
// counts what crosses it.
type tracedStore struct {
	persist.Store
	rec                         *recorder
	appends, bytes, compactions atomic.Int64
}

func (s *tracedStore) Append(op string, data []byte) error {
	parent, _ := s.rec.current.Load(goid())
	t, _ := parent.(tctx)
	id, t0 := s.rec.newID(), s.rec.now()
	err := s.Store.Append(op, data)
	s.rec.add(span{Req: t.req, ID: id, Parent: t.span, Name: spanWALAppend, Start: t0, End: s.rec.now()})
	s.appends.Add(1)
	s.bytes.Add(int64(len(op) + len(data)))
	return err
}

func (s *tracedStore) Replay(apply func(op string, data []byte) error) error {
	t0 := s.rec.now()
	err := s.Store.Replay(apply)
	s.rec.add(span{ID: s.rec.newID(), Name: spanWALReplay, Start: t0, End: s.rec.now()})
	return err
}

func (s *tracedStore) Compact(dump func(add func(op string, data []byte) error) error) error {
	t0 := s.rec.now()
	err := s.Store.Compact(dump)
	s.rec.add(span{ID: s.rec.newID(), Name: spanWALCompact, Start: t0, End: s.rec.now()})
	s.compactions.Add(1)
	return err
}

// --- analysis -----------------------------------------------------------------

// selfTime is a span's duration minus the part of its interval covered by
// the union of its children (overlapping children, such as concurrent
// flushes or a retried forward, are not counted twice).
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.dur() - covered
}

// spanIndex groups spans for the per-layer arithmetic.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// self returns the self time of every span named name, in microseconds.
func (ix *spanIndex) self(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, float64(selfTime(s, ix.children[s.ID]))/1e3)
	}
	return out
}

// durs returns the durations, in microseconds, of the spans named name
// that keep passes.
func (ix *spanIndex) durs(name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		if keep == nil || keep(s) {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

func (ix *spanIndex) String() string {
	var names []string
	for n, ss := range ix.byName {
		names = append(names, fmt.Sprintf("%s=%d", n, len(ss)))
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}
