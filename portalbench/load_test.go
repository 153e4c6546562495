package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the set-up process the
// end-to-end measurement starts.
func TestMain(m *testing.M) {
	runSetupChild()
	os.Exit(m.Run())
}

// stallServer answers every request under a shared lock; after `after`
// requests it stalls once, holding the lock for `stall` — a server pause
// every request in flight or arriving must wait out.
func stallServer(after int64, stall time.Duration) *httptest.Server {
	var (
		mu   sync.RWMutex
		n    atomic.Int64
		once sync.Once
	)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stall > 0 && n.Add(1) == after {
			once.Do(func() {
				mu.Lock()
				time.Sleep(stall)
				mu.Unlock()
			})
		}
		mu.RLock()
		_, _ = io.Copy(io.Discard, r.Body)
		mu.RUnlock()
		fmt.Fprint(w, "ok")
	}))
}

func httpSender(url string, conns int) sender {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	return func(ctx context.Context) (opClass, error) {
		resp, err := hc.Post(url, "text/plain", nil)
		if err != nil {
			return classRead, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return classRead, nil
	}
}

// TestOpenLoopChargesStall injects one server stall and checks that the
// requests queued behind it carry it into both the read p99 and the
// generator's lag p99 — the open loop cannot hide queueing the way a
// closed loop timing each request from its own send would.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		rate  = 1000.0
		dur   = time.Second
		stall = 80 * time.Millisecond
	)
	run := func(stall time.Duration) (p99, lag99 float64, served int) {
		srv := stallServer(300, stall)
		defer srv.Close()
		p := openLoop(poissonSchedule(rate, dur, newRand(1, 1)), 2, 5*time.Second, httpSender(srv.URL, 2))
		if tl := p.tally(); tl.failed != 0 {
			t.Fatalf("%d requests failed: %v", tl.failed, tl.firstErr)
		}
		return quantile(p.latencies(classRead), 0.99), quantile(p.lags(), 0.99), len(p.outcomes)
	}
	p99, lag99, served := run(stall)
	if served < 900 {
		t.Fatalf("only %d requests served", served)
	}
	// ~80 requests fall inside the stall: far more than 1% of the run.
	half := float64(stall) / 2 / 1e6
	if p99 < half || lag99 < half {
		t.Fatalf("stall of %v: read p99 %.2f ms, lag p99 %.2f ms; both should exceed %.0f ms", stall, p99, lag99, half)
	}
	base99, _, _ := run(0)
	if base99 >= half {
		t.Fatalf("without a stall read p99 is already %.2f ms", base99)
	}
}

// stopProcess stops the whole process for d with SIGSTOP, a helper shell
// sending the SIGCONT: every thread halts, the generator's included, as in
// a stop-the-world pause or a descheduled VM.
func stopProcess(t *testing.T, d time.Duration) {
	cont := exec.Command("sh", "-c", fmt.Sprintf("sleep %.3f; kill -CONT %d", d.Seconds(), os.Getpid()))
	if err := cont.Start(); err != nil {
		t.Errorf("no helper to resume the process: %v", err)
		return
	}
	_ = syscall.Kill(os.Getpid(), syscall.SIGSTOP)
	_ = cont.Wait()
}

// TestOpenLoopChargesProcessStall stops the whole process across one
// scheduled slot while the connections sit idle: the rate is low and the
// slots either side are further away than the stop, so no request is in
// flight or queued to absorb it. Only the generator's own wake-up is late,
// and that request must still carry the stop from its slot.
func TestOpenLoopChargesProcessStall(t *testing.T) {
	const (
		rate  = 20.0
		dur   = 3 * time.Second
		stall = 40 * time.Millisecond
	)
	sched := poissonSchedule(rate, dur, newRand(1, 1))
	k := -1
	for i := 10; i+1 < len(sched); i++ {
		if sched[i]-sched[i-1] > 2*stall && sched[i+1]-sched[i] > 2*stall {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("no isolated slot in the schedule")
	}
	srv := stallServer(0, 0)
	defer srv.Close()
	run := func(stall time.Duration) (p *openPhase) {
		start := time.Now()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if stall > 0 {
				time.Sleep(time.Until(start.Add(sched[k] - stall/2)))
				stopProcess(t, stall)
			}
		}()
		p = openLoop(sched, 2, 5*time.Second, httpSender(srv.URL, 2))
		<-done
		if tl := p.tally(); tl.failed != 0 {
			t.Fatalf("%d requests failed: %v", tl.failed, tl.firstErr)
		}
		return p
	}
	quarter := float64(stall) / 4 / 1e6
	if p := run(0); p.outcomes[k].lat >= stall/4 {
		t.Fatalf("without a stall slot %d already took %v", k, p.outcomes[k].lat)
	}
	p := run(stall)
	if lat, lag := float64(p.outcomes[k].lat)/1e6, float64(p.outcomes[k].lag)/1e6; lat < quarter || lag < quarter {
		t.Fatalf("process stopped for %v across slot %d: its latency %.2f ms, lag %.2f ms; both should exceed %.0f ms",
			stall, k, lat, lag, quarter)
	}
}

// TestWaitUntil checks the generator's wake-up is on time to well under a
// millisecond at the median, where Go's timers alone overshoot by about one.
func TestWaitUntil(t *testing.T) {
	var late []float64
	rng := newRand(5, 5)
	for i := 0; i < 200; i++ {
		due := time.Now().Add(time.Duration(rng.ExpFloat64() * float64(time.Millisecond)))
		waitUntil(due)
		late = append(late, float64(time.Since(due))/1e3)
	}
	if m := quantile(late, 0.5); m > 100 {
		t.Fatalf("median wake-up %.1f us late", m)
	}
}

func TestPoissonSchedule(t *testing.T) {
	s := poissonSchedule(500, 4*time.Second, newRand(3, 3))
	if len(s) < 1800 || len(s) > 2200 {
		t.Fatalf("%d arrivals at 500/s over 4s", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatal("schedule not ordered")
		}
	}
}
