package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/soap"
)

// client is the portal user side: it encodes each generated call, posts it
// over one of a fixed number of keep-alive connections, decodes the
// answer, and has the model's oracle judge it.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder // nil when tracing is off

	mu sync.Mutex // serialises model.next, so the stream follows the seed
	m  model

	reqBytes, respBytes atomic.Int64
}

func newClient(base string, conns int, m model, rec *recorder) *client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	if rec != nil {
		rt = &clientRT{rec: rec, base: rt}
	}
	return &client{hc: &http.Client{Transport: rt, Timeout: 10 * time.Second}, base: base, m: m, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// next draws the next request of the seeded stream.
func (c *client) next() *request {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.next()
}

// do performs one request end to end and reports whether it was answered
// correctly.
func (c *client) do(ctx context.Context, r *request) error {
	var root span
	if c.rec != nil {
		root = span{Req: c.rec.newID(), Name: spanClientOp, Attr: r.class.String(), Start: c.rec.now()}
		root.ID = c.rec.newID()
		ctx = withTrace(ctx, tctx{root.Req, root.ID})
	}
	resp, release, err := c.exchange(ctx, r)
	if c.rec != nil {
		root.End = c.rec.now()
		c.rec.add(root)
	}
	if err != nil {
		return err
	}
	defer release()
	return c.m.check(r, resp)
}

// exchange encodes, posts and decodes one call. The response's XML values
// live in a pooled arena until release is called.
func (c *client) exchange(ctx context.Context, r *request) (*soap.Response, func(), error) {
	var body bytes.Buffer
	r.encode(&body)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path, &body)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", soap.ContentType)
	req.Header.Set("SOAPAction", `"`+r.call.ServiceNS+"#"+r.call.Method+`"`)
	c.reqBytes.Add(int64(body.Len()))
	r.sent = time.Now()
	res, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	err = soap.ReadMessage(&out, res.Body)
	res.Body.Close()
	r.acked = time.Now()
	if err != nil {
		return nil, nil, err
	}
	c.respBytes.Add(int64(out.Len()))
	if res.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: HTTP %d: %.200s", r.call.Method, res.StatusCode, out.Bytes())
	}
	return decode(out.Bytes())
}

// decode parses a response envelope the way core.Client does: the
// streaming reader for scalar returns, the pooled tree otherwise.
func decode(data []byte) (*soap.Response, func(), error) {
	if resp, ok := soap.ParseResponseStream(data); ok {
		return resp, func() {}, nil
	}
	env, doc, err := soap.ParseEnvelopeBytesPooled(data)
	if err != nil {
		return nil, nil, err
	}
	resp, err := soap.ParseResponse(env)
	if err != nil {
		doc.Release()
		return nil, nil, err
	}
	return resp, doc.Release, nil
}

// --- load phases ----------------------------------------------------------------

// outcome is one finished open-loop request.
type outcome struct {
	class opClass
	// lat runs from the scheduled slot to the judged answer; lag is how
	// late the generator sent the request.
	lat, lag time.Duration
	err      error
}

// tally counts a phase's requests. Closed loops keep only these counts,
// so the benchmark's own memory does not grow with the stack's speed.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// sender performs one request of the stream; the load phases call it from
// conns goroutines at once.
type sender func(ctx context.Context) (opClass, error)

func (c *client) sender() sender {
	return func(ctx context.Context) (opClass, error) {
		r := c.next()
		return r.class, c.do(ctx, r)
	}
}

// closedPhase is a closed loop's result: its counts and the correct
// answers completed in each whole second.
type closedPhase struct {
	tally
	elapsed time.Duration
	perSec  []float64
}

// goodput is correct answers per second over the whole phase.
func (p *closedPhase) goodput() float64 {
	return float64(p.attempted-p.failed) / p.elapsed.Seconds()
}

// capacity is the median over the phase's whole seconds of the correct
// answers completed in each: a figure that one slow second (a neighbour's
// burst on a shared host) cannot drag.
func (p *closedPhase) capacity() float64 {
	if len(p.perSec) == 0 {
		return p.goodput()
	}
	return median(p.perSec)
}

// closedLoop keeps conns requests in flight, each connection sending its
// next request as soon as the previous one is answered, for dur.
func closedLoop(dur time.Duration, conns int, send sender) *closedPhase {
	return runClosed(dur, 0, conns, send)
}

// warmLoop is a closed loop that stops after n requests, however long they
// take.
func warmLoop(n, conns int, send sender) *closedPhase {
	return runClosed(0, n, conns, send)
}

// runClosed runs a closed loop until dur has passed (dur > 0) or n
// requests have been sent (n > 0).
func runClosed(dur time.Duration, n, conns int, send sender) *closedPhase {
	var (
		mu      sync.Mutex
		res     = &closedPhase{perSec: make([]float64, int(dur/time.Second))}
		wg      sync.WaitGroup
		claimed atomic.Int64
	)
	start := time.Now()
	stop := start.Add(dur)
	more := func() bool {
		if n > 0 {
			return claimed.Add(1) <= int64(n)
		}
		return time.Now().Before(stop)
	}
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine tally
			perSec := make([]float64, len(res.perSec))
			for more() {
				_, err := send(context.Background())
				mine.add(err)
				if i := int(time.Since(start) / time.Second); err == nil && i < len(perSec) {
					perSec[i]++
				}
			}
			mu.Lock()
			res.merge(mine)
			for i, c := range perSec {
				res.perSec[i] += c
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// openPhase is an open loop's result: one outcome per scheduled slot.
type openPhase struct {
	outcomes []outcome
}

func (p *openPhase) tally() tally {
	var t tally
	for _, o := range p.outcomes {
		t.add(o.err)
	}
	return t
}

// latencies returns the latencies of successful requests of a class, in ms.
func (p *openPhase) latencies(c opClass) []float64 {
	var out []float64
	for _, o := range p.outcomes {
		if o.err == nil && o.class == c {
			out = append(out, float64(o.lat)/1e6)
		}
	}
	return out
}

func (p *openPhase) lags() []float64 {
	out := make([]float64, 0, len(p.outcomes))
	for _, o := range p.outcomes {
		out = append(out, float64(o.lag)/1e6)
	}
	return out
}

// windowSize is the number of consecutive scheduled requests in one
// latency window: enough that each window's 99th percentile has ten
// samples beyond it.
const windowSize = 1000

// windowedQuantile is the median, over consecutive windows of windowSize
// scheduled requests, of each window's q-quantile of class c latencies
// (the whole phase is one window when it is shorter). Reporting the
// typical window rather than the pooled run keeps a tail figure steady
// when one stretch of the run was disturbed from outside.
func (p *openPhase) windowedQuantile(c opClass, q float64) float64 {
	n := max(len(p.outcomes)/windowSize, 1)
	var per []float64
	for w := 0; w < n; w++ {
		end := (w + 1) * windowSize
		if w == n-1 {
			end = len(p.outcomes)
		}
		win := &openPhase{outcomes: p.outcomes[w*windowSize : end]}
		if lat := win.latencies(c); len(lat) > 0 {
			per = append(per, quantile(lat, q))
		}
	}
	return median(per)
}

// poissonSchedule returns send offsets of a Poisson process at rate per
// second over dur.
func poissonSchedule(rate float64, dur time.Duration, rng *rand.Rand) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// errUnsent marks a scheduled request the generator never got to send
// before the drain limit.
var errUnsent = errors.New("not sent before the drain limit")

// spinSlack is how early waitUntil stops sleeping and starts yielding:
// above the kernel's usual nanosleep overshoot on Linux (tens of
// microseconds, plus the 50 us default timer slack).
const spinSlack = 200 * time.Microsecond

// waitUntil returns once t has come. It sleeps in the kernel until
// spinSlack before t, then yields the processor until t. Go's own timers
// wake up to a millisecond late on Linux; a generator built on them would
// either report that millisecond as the stack's latency or, to avoid it,
// time from the actual send and so hide a stall of the whole process.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t) - spinSlack
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (a preemption signal): sleep again
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends on a fixed schedule regardless of how fast answers come
// back, over conns connections: each connection takes the next slot as
// soon as it is free and waits for it to come due. Every request is timed
// from its scheduled slot, so anything that delays a send (a connection
// still busy with an earlier answer, a stall of the whole process, the
// generator waking late) is charged to the requests behind it: no
// coordinated omission. lag reports how late each send was. Requests still
// queued drainLimit after the schedule ends count as failed. Outcomes are
// kept in schedule order.
func openLoop(schedule []time.Duration, conns int, drainLimit time.Duration, send sender) *openPhase {
	var (
		next atomic.Int64
		out  = make([]outcome, len(schedule))
		wg   sync.WaitGroup
	)
	start := time.Now()
	var end time.Duration
	if len(schedule) > 0 {
		end = schedule[len(schedule)-1]
	}
	deadline := start.Add(end + drainLimit)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(schedule) {
					return
				}
				due := start.Add(schedule[i])
				waitUntil(due)
				sent := time.Now()
				if sent.After(deadline) {
					out[i] = outcome{lag: sent.Sub(due), err: errUnsent}
					continue
				}
				class, err := send(context.Background())
				out[i] = outcome{class: class, lat: time.Since(due), lag: sent.Sub(due), err: err}
			}
		}()
	}
	wg.Wait()
	return &openPhase{outcomes: out}
}
