// Command portalbench is the portal stack's load benchmark. It assembles
// the stack in-process from the same constructors and wiring the cmd/
// binaries use, serves it over loopback TCP with net/http, drives it with
// seeded SOAP traffic over at most nproc connections, judges every answer,
// and prints its metrics by name and unit. The last line of its output is
// one JSON object: end-to-end metrics with -trace 0, per-layer metrics
// from a traced run with -trace 1.
//
// Each run sets the stack up in several fresh processes (set-up time is
// their median), sets it up once more in its own process, warms it with a
// fixed number of requests, measures capacity in a closed loop with nproc
// connections, then latency in an open loop at the workload's fixed rate,
// timing every request from its scheduled send.
//
//	bash portalbench/run.sh --workload fig1-generate --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/batchscript"
	"repro/internal/contextmgr"
	"repro/internal/uddi"
)

// scenario is one workload: its fixed open-loop rate, how to make its
// seeded inputs, and how to assemble the stack it runs on.
type scenario struct {
	name string
	// rate is the open-loop send rate in requests per second. It is fixed
	// here and recorded in BENCHMARK.json's why for the workload.
	rate float64
	// warmup is the number of requests sent before anything is timed, so
	// caches and lazily filled tables reach their steady state first.
	warmup int
	// prepare makes per-run seeded data shared by every stack (not timed).
	prepare func(x *run) error
	// newModel returns a fresh generator and oracle for one stack.
	newModel func(x *run) model
	// durable workloads start each stack from a data directory holding a
	// seeded log, and are checked by replaying it after the run.
	durable bool
	// build assembles the stack (timed as set-up) and returns its front
	// door.
	build func(x *run, dataDir string, rec *recorder) (*deployment, error)
}

// Loopback ports: the gateway on the port the repository's docs give the
// portal, backends on the ports after it.
const (
	gatewayPort = 18080
	nodePort    = 18081
)

var scenarios = []*scenario{
	{
		name:     "fig1-generate",
		rate:     1000,
		warmup:   5000,
		newModel: func(x *run) model { return newFig1Model(x.seed) },
		build: func(x *run, _ string, rec *recorder) (*deployment, error) {
			n, err := startNode(nodeOptions{name: "portal", port: nodePort, logger: x.logger, rec: rec})
			if err != nil {
				return nil, err
			}
			return &deployment{nodes: []*node{n}, base: n.l.base}, nil
		},
	},
	{
		name: "discovery-gateway",
		rate: 500,
		// The XML layer's global intern table copies itself on every new
		// short attribute value until it holds 8192; discovery responses
		// carry a new UUID key per unseen entity, and about 12000 requests
		// fill the table. Until then throughput is a third of its steady
		// state, so the warm-up runs well past that point.
		warmup: 20000,
		prepare: func(x *run) (err error) {
			x.disc, err = newDiscoveryData(x.seed)
			return err
		},
		newModel: func(x *run) model { return newDiscoveryModel(x.seed, x.disc) },
		build: func(x *run, _ string, rec *recorder) (*deployment, error) {
			d := &deployment{}
			var backends []string
			for i := 0; i < 2; i++ {
				n, err := startNode(nodeOptions{
					name:     fmt.Sprintf("portal%d", i+1),
					port:     nodePort + i,
					seedUDDI: func(r *uddi.Registry) error { return x.disc.seedRegistry(r, false) },
					logger:   x.logger,
					rec:      rec,
				})
				if err != nil {
					d.close()
					return nil, err
				}
				d.nodes = append(d.nodes, n)
				backends = append(backends, n.l.base)
			}
			f, err := startGateway(gatewayPort, backends, rec)
			if err != nil {
				d.close()
				return nil, err
			}
			d.front, d.base = f, f.l.base
			return d, nil
		},
	},
	{
		name:     "durable-session",
		rate:     400,
		warmup:   5000,
		durable:  true,
		newModel: func(x *run) model { return newSessionModel(x.seed) },
		build: func(x *run, dataDir string, rec *recorder) (*deployment, error) {
			n, err := startNode(nodeOptions{name: "portal", port: nodePort, dataDir: dataDir, logger: x.logger, rec: rec})
			if err != nil {
				return nil, err
			}
			return &deployment{nodes: []*node{n}, base: n.l.base}, nil
		},
	},
}

func findScenario(name string) *scenario {
	for _, s := range scenarios {
		if s.name == name {
			return s
		}
	}
	return nil
}

// deployment is one assembled stack.
type deployment struct {
	nodes []*node
	front *front // nil when clients talk to the node directly
	base  string
}

func (d *deployment) close() error {
	var err error
	if d.front != nil {
		err = d.front.close()
	}
	for _, n := range d.nodes {
		err = errors.Join(err, n.close())
	}
	return err
}

// run holds one benchmark invocation's settings and shared state.
type run struct {
	sc      *scenario
	seed    uint64
	seconds float64
	conns   int
	work    string // scratch directory, removed at exit
	logger  *log.Logger
	disc    *discoveryData
	dirs    int

	// total counts every request of the run, set-up probes included.
	total tally
}

const (
	// Set-up runs in setupMin to setupMax fresh processes, stopping early
	// once setupBudget has been spent; setup_s is the median.
	setupMin    = 5
	setupMax    = 41
	setupBudget = 3 * time.Second
	// childLimit bounds how long a set-up process may take to answer, and
	// then to exit once told to.
	childLimit = 60 * time.Second
	drainLimit = 5 * time.Second
)

// live is a deployed stack with its client.
type live struct {
	dep *deployment
	cl  *client
	m   model
	dir string
}

// newState returns a fresh model and, on a durable workload, a new data
// directory holding the seeded log (written untimed).
func (x *run) newState() (model, string, error) {
	m := x.sc.newModel(x)
	if !x.sc.durable {
		return m, "", nil
	}
	dir := filepath.Join(x.work, fmt.Sprintf("data%d", x.dirs))
	x.dirs++
	if err := seedLog(dir, m.(*sessionModel)); err != nil {
		return nil, "", fmt.Errorf("seed log: %w", err)
	}
	return m, dir, nil
}

// deploy sets a stack up in this process from m's state and dir until its
// first correct response, and leaves it running.
func (x *run) deploy(rec *recorder, m model, dir string) (*live, error) {
	dep, err := x.sc.build(x, dir, rec)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	cl := newClient(dep.base, x.conns, m, rec)
	err = cl.do(context.Background(), m.probe())
	x.total.add(err)
	if err != nil {
		cl.close()
		return nil, errors.Join(fmt.Errorf("set-up probe: %w", err), dep.close())
	}
	return &live{dep: dep, cl: cl, m: m, dir: dir}, nil
}

// freshDeploy is deploy from a new model and data directory.
func (x *run) freshDeploy(rec *recorder) (*live, error) {
	m, dir, err := x.newState()
	if err != nil {
		return nil, err
	}
	return x.deploy(rec, m, dir)
}

// setupTimes times set-ups of the stack in fresh processes, so package
// initialisation, the runtime's start and a cold heap are part of each
// one. A child is this binary started with setupEnv set; its set-up runs
// from the parent starting it to the child reporting its first correct
// answer, less the time the child spent generating its inputs (the
// benchmark's work, not the stack's). A durable workload's children all
// replay dir.
func (x *run) setupTimes(dir string) ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []time.Duration
	begin := time.Now()
	for len(times) < setupMax && (len(times) < setupMin || time.Since(begin) < setupBudget) {
		d, err := x.childSetup(exe, dir)
		x.total.add(err)
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		times = append(times, d)
	}
	return times, nil
}

// childSetup runs one set-up process, waits for its report, and stops it.
func (x *run) childSetup(exe, dir string) (time.Duration, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d:%s", setupEnv, x.sc.name, x.seed, dir))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	lines := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		lines <- line
	}()
	var line string
	select {
	case line = <-lines:
	case <-time.After(childLimit):
		_ = cmd.Process.Kill()
		<-lines
	}
	took := time.Since(t0)
	stdin.Close()
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err = <-exited:
	case <-time.After(childLimit):
		_ = cmd.Process.Kill()
		err = errors.Join(errors.New("did not exit when told to"), <-exited)
	}
	var prep int64
	if _, serr := fmt.Sscanf(line, "ready %d", &prep); serr != nil {
		return 0, errors.Join(fmt.Errorf("no report (%q)", line), err)
	}
	if err != nil {
		return 0, err
	}
	return took - time.Duration(prep), nil
}

// setupChild is the body of a set-up process: it generates its inputs,
// sets the stack up, and once the probe is answered correctly reports
// "ready <input generation ns>" on stdout. It tears the stack down when
// its standard input closes.
func setupChild(sc *scenario, seed uint64, dir string) error {
	logger, closeLog, err := drainedLogger()
	if err != nil {
		return err
	}
	defer closeLog()
	x := &run{sc: sc, seed: seed, conns: runtime.NumCPU(), logger: logger}
	t0 := time.Now()
	if sc.prepare != nil {
		if err := sc.prepare(x); err != nil {
			return err
		}
	}
	prep := time.Since(t0)
	lv, err := x.deploy(nil, sc.newModel(x), dir)
	if err != nil {
		return err
	}
	fmt.Printf("ready %d\n", prep.Nanoseconds())
	_, _ = io.Copy(io.Discard, os.Stdin)
	lv.cl.close()
	return lv.dep.close()
}

// finish stops the stack and, on a durable workload, replays its data
// directory into a fresh store and checks every acknowledged write.
func (x *run) finish(lv *live) error {
	lv.cl.close()
	if err := lv.dep.close(); err != nil {
		return err
	}
	if !x.sc.durable {
		return nil
	}
	return verifyLog(lv.dir, lv.m.(*sessionModel))
}

func (x *run) dur(share float64) time.Duration {
	return time.Duration(share * x.seconds * float64(time.Second))
}

// result is what one invocation reports.
type result struct {
	metrics []metric
	notes   []string // printed before the JSON line
	correct bool
}

type metric struct {
	name  string
	value float64
	unit  string
}

// measure runs the untraced end-to-end measurement.
func (x *run) measure() (*result, error) {
	m, dir, err := x.newState()
	if err != nil {
		return nil, err
	}
	setups, err := x.setupTimes(dir)
	if err != nil {
		return nil, err
	}
	lv, err := x.deploy(nil, m, dir)
	if err != nil {
		return nil, err
	}
	warm := warmLoop(x.sc.warmup, x.conns, lv.cl.sender())
	x.total.merge(warm.tally)
	closed := closedLoop(x.dur(0.25), x.conns, lv.cl.sender())
	x.total.merge(closed.tally)
	open := openLoop(poissonSchedule(x.sc.rate, x.dur(0.75), newRand(x.seed, 30)), x.conns, drainLimit, lv.cl.sender())
	x.total.merge(open.tally())
	recErr := x.finish(lv)

	reads, writes := open.latencies(classRead), open.latencies(classWrite)
	res := &result{correct: x.total.failed == 0 && recErr == nil}
	res.metrics = []metric{
		{"setup_s", median(seconds(setups)), "s"},
		{"read_p50_ms", open.windowedQuantile(classRead, 0.50), "ms"},
		{"rss_peak_mb", rssPeakMB(), "MiB"},
	}
	res.notes = append(res.notes,
		fmt.Sprintf("setup_s: median of %d set-ups in fresh processes %v", len(setups), seconds(setups)),
		fmt.Sprintf("warm-up: %d requests in %.2f s (%.0f correct/s)", warm.attempted, warm.elapsed.Seconds(), warm.goodput()),
		fmt.Sprintf("read_p99_ms %.4f ms (median over 1000-request windows; %d read samples)", open.windowedQuantile(classRead, 0.99), len(reads)),
		fmt.Sprintf("capacity_rps %.1f 1/s (closed loop, %d connections, median of one-second slices %v)", closed.capacity(), x.conns, closed.perSec),
		fmt.Sprintf("open loop: rate=%.0f/s scheduled=%d read_samples=%d write_samples=%d lag_p99_ms=%.3f",
			x.sc.rate, len(open.outcomes), len(reads), len(writes), quantile(open.lags(), 0.99)),
		fmt.Sprintf("pooled over the open loop: read_p50_ms=%.4f read_p99_ms=%.4f", quantile(reads, 0.5), quantile(reads, 0.99)),
		fmt.Sprintf("write_p50_ms %.4f ms   write_p99_ms %.4f ms   (n=%d)", quantile(writes, 0.5), quantile(writes, 0.99), len(writes)),
		fmt.Sprintf("failed_frac %.6f", div(float64(x.total.failed), float64(x.total.attempted))),
	)
	if recErr != nil {
		res.notes = append(res.notes, "recovery check FAILED: "+recErr.Error())
	} else if x.sc.durable {
		res.notes = append(res.notes, "recovery check passed: every acknowledged write replayed exactly once")
	}
	return res, nil
}

// counters are the public counters read before and after the traced
// measurement.
type counters struct {
	hits, misses, fast, tree, flushes uint64
	appends, walBytes, compactions    int64
	reqBytes, respBytes               int64
	gwFlushes                         int64
}

func readCounters(lv *live) counters {
	var c counters
	for _, n := range lv.dep.nodes {
		h, m, _ := n.cache.Stats()
		c.hits += h
		c.misses += m
		d := n.srv.Stats().DecodeSnapshot()
		c.fast += d.FastPath
		c.tree += d.TreePath
		c.flushes += n.srv.Flushes()
		if n.traced != nil {
			c.appends += n.traced.appends.Load()
			c.walBytes += n.traced.bytes.Load()
			c.compactions += n.traced.compactions.Load()
		}
	}
	c.reqBytes, c.respBytes = lv.cl.reqBytes.Load(), lv.cl.respBytes.Load()
	if lv.dep.front != nil {
		c.gwFlushes = lv.dep.front.flushes.Load()
	}
	return c
}

// goSample holds the runtime/metrics the per-request Go costs come from.
type goSample struct{ allocs, bytes, gcCPU, totalCPU float64 }

func readGo() goSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goSample{f(s[0].Value), f(s[1].Value), f(s[2].Value), f(s[3].Value)}
}

// traced runs the per-layer measurement: an untraced closed loop as the
// reference (and for the Go runtime's per-request costs, which the
// tracer's own allocations would inflate), then a fresh traced stack
// through the same closed loop and the open loop.
func (x *run) traced(spansPath string) (*result, error) {
	ref, err := x.freshDeploy(nil)
	if err != nil {
		return nil, err
	}
	x.total.merge(warmLoop(x.sc.warmup, x.conns, ref.cl.sender()).tally)
	runtime.GC()
	g0 := readGo()
	refClosed := closedLoop(x.dur(0.25), x.conns, ref.cl.sender())
	g1 := readGo()
	x.total.merge(refClosed.tally)
	if err := x.finish(ref); err != nil {
		return nil, fmt.Errorf("reference stack: %w", err)
	}

	rec := newRecorder()
	lv, err := x.freshDeploy(rec)
	if err != nil {
		return nil, err
	}
	replay := indexSpans(rec.snapshot()).durs(spanWALReplay, nil)
	x.total.merge(warmLoop(x.sc.warmup, x.conns, lv.cl.sender()).tally)
	rec.reset()
	c0 := readCounters(lv)
	closed := closedLoop(x.dur(0.25), x.conns, lv.cl.sender())
	x.total.merge(closed.tally)
	open := openLoop(poissonSchedule(x.sc.rate, x.dur(0.5), newRand(x.seed, 30)), x.conns, drainLimit, lv.cl.sender())
	x.total.merge(open.tally())
	c1 := readCounters(lv)
	recErr := x.finish(lv)
	spans := rec.snapshot()
	writeErr := rec.writeJSONL(spansPath)

	ix := indexSpans(spans)
	reqs := len(ix.byName[spanClientOp])
	var writeOps int
	for _, s := range ix.byName[spanClientOp] {
		if s.Attr == classWrite.String() {
			writeOps++
		}
	}
	// handlers selects one service's handler spans whose operation keep
	// accepts, given whether it is a read (get*/find*).
	handlers := func(ns string, keep func(read bool) bool) func(span) bool {
		return func(s span) bool {
			op, ok := strings.CutPrefix(s.Attr, ns+"#")
			return ok && keep(strings.HasPrefix(op, "get") || strings.HasPrefix(op, "find"))
		}
	}
	anyOp := func(bool) bool { return true }
	readOp := func(read bool) bool { return read }
	writeOp := func(read bool) bool { return !read }
	forwards := ix.byName[spanForward]
	perBackend := map[string]int{}
	for _, f := range forwards {
		perBackend[strings.TrimSuffix(f.Attr, " error")]++
	}
	shareMax := 0.0
	for _, n := range perBackend {
		shareMax = max(shareMax, div(float64(n), float64(len(forwards))))
	}
	appends := ix.durs(spanWALAppend, nil)
	compacts := ix.durs(spanWALCompact, nil)
	dc := func(a, b uint64) float64 { return float64(a - b) }
	reads, writes := open.latencies(classRead), open.latencies(classWrite)

	res := &result{correct: x.total.failed == 0 && recErr == nil && writeErr == nil}
	res.metrics = []metric{
		{"loadgen.capacity_rps", refClosed.capacity(), "1/s"},
		{"loadgen.read_p99_ms", open.windowedQuantile(classRead, 0.99), "ms"},
		{"loadgen.lag_p99_ms", quantile(open.lags(), 0.99), "ms"},
		{"loadgen.client_self_us", mean(ix.self(spanClientOp)), "us"},
		{"loadgen.read_samples", float64(len(reads)), "count"},
		{"loadgen.write_samples", float64(len(writes)), "count"},
		{"loadgen.write_p50_ms", quantile(writes, 0.5), "ms"},
		{"loadgen.write_p99_ms", quantile(writes, 0.99), "ms"},
		{"loadgen.failed_frac", div(float64(x.total.failed), float64(x.total.attempted)), "ratio"},
		{"soap.req_bytes", div(float64(c1.reqBytes-c0.reqBytes), float64(reqs)), "B"},
		{"soap.resp_bytes", div(float64(c1.respBytes-c0.respBytes), float64(reqs)), "B"},
		{"rpc.server_us", mean(ix.durs(spanServer, nil)), "us"},
		{"rpc.kernel_self_us", mean(ix.self(spanServer)), "us"},
		{"rpc.middleware_self_us", mean(ix.self(spanProvider)), "us"},
		{"rpc.decode_fast_frac", div(dc(c1.fast, c0.fast), dc(c1.fast+c1.tree, c0.fast+c0.tree)), "ratio"},
		{"rpc.cache_hit_frac", div(dc(c1.hits, c0.hits), dc(c1.hits+c1.misses, c0.hits+c0.misses)), "ratio"},
		{"rpc.remote_flushes", dc(c1.flushes, c0.flushes), "count"},
		{"go.allocs_per_req", div(g1.allocs-g0.allocs, float64(refClosed.attempted)), "count"},
		{"go.bytes_per_req", div(g1.bytes-g0.bytes, float64(refClosed.attempted)), "B"},
		{"go.gc_cpu_frac", div(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU), "ratio"},
		{"gateway.self_us", mean(ix.self(spanGateway)), "us"},
		{"gateway.forward_us", mean(ix.durs(spanForward, nil)), "us"},
		{"gateway.forwards_per_req", div(float64(len(forwards)), float64(len(ix.byName[spanGateway]))), "ratio"},
		{"gateway.backend_share_max", shareMax, "ratio"},
		{"gateway.flush_posts_per_write", div(float64(c1.gwFlushes-c0.gwFlushes), float64(writeOps)), "ratio"},
		{"batchscript.handler_us", mean(ix.durs(spanService, handlers(batchscript.ServiceNS, anyOp))), "us"},
		{"uddi.read_handler_us", mean(ix.durs(spanService, handlers(uddi.ServiceNS, readOp))), "us"},
		{"uddi.write_handler_us", mean(ix.durs(spanService, handlers(uddi.ServiceNS, writeOp))), "us"},
		{"contextmgr.read_handler_p99_us", quantile(ix.durs(spanService, handlers(contextmgr.MonolithNS, readOp)), 0.99), "us"},
		{"contextmgr.write_handler_us", mean(ix.durs(spanService, handlers(contextmgr.MonolithNS, writeOp))), "us"},
		{"wal.append_p50_us", quantile(appends, 0.5), "us"},
		{"wal.append_p99_us", quantile(appends, 0.99), "us"},
		{"wal.bytes_per_append", div(float64(c1.walBytes-c0.walBytes), float64(c1.appends-c0.appends)), "B"},
		{"wal.compactions", float64(c1.compactions - c0.compactions), "count"},
		{"wal.compact_ms", mean(compacts) / 1e3, "ms"},
		{"wal.replay_ms", mean(replay) / 1e3, "ms"},
		{"trace.capacity_overhead_frac", 1 - div(closed.goodput(), refClosed.goodput()), "ratio"},
	}
	res.notes = append(res.notes,
		fmt.Sprintf("tracing overhead: capacity %.1f/s untraced vs %.1f/s traced", refClosed.goodput(), closed.goodput()),
		fmt.Sprintf("traced open loop: rate=%.0f/s read_p50_ms=%.4f read_p99_ms=%.4f (n=%d)", x.sc.rate,
			quantile(reads, 0.5), quantile(reads, 0.99), len(reads)),
		fmt.Sprintf("spans: %s -> %s", ix, spansPath),
	)
	if writeErr != nil {
		res.notes = append(res.notes, "writing spans FAILED: "+writeErr.Error())
	}
	if recErr != nil {
		res.notes = append(res.notes, "recovery check FAILED: "+recErr.Error())
	}
	return res, nil
}

// drainedLogger is the servers' Logging destination: a pipe drained in the
// background, as a deployment's stderr goes to a log collector, so the
// write syscall is paid but no disk is involved. closeLog waits for the
// drain to finish.
func drainedLogger() (logger *log.Logger, closeLog func(), err error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, nil, err
	}
	drained := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, r)
		r.Close()
		close(drained)
	}()
	return log.New(w, "", log.LstdFlags), func() {
		w.Close()
		<-drained
	}, nil
}

// setupEnv marks a set-up process and carries its workload, seed and data
// directory as "<workload>:<seed>:<dir>".
const setupEnv = "PORTALBENCH_SETUP"

// runSetupChild makes this process a set-up process, and exits, when
// setupEnv is set; otherwise it returns.
func runSetupChild() {
	spec, ok := os.LookupEnv(setupEnv)
	if !ok {
		return
	}
	f := strings.SplitN(spec, ":", 3)
	var seed uint64
	var sc *scenario
	if len(f) == 3 {
		sc = findScenario(f[0])
		_, err := fmt.Sscan(f[1], &seed)
		if err != nil {
			sc = nil
		}
	}
	err := fmt.Errorf("bad %s=%q", setupEnv, spec)
	if sc != nil {
		err = setupChild(sc, seed, f[2])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "portalbench set-up process:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func main() {
	runSetupChild()
	workload := flag.String("workload", "", "workload name: fig1-generate, discovery-gateway or durable-session")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	secs := flag.Float64("seconds", 20, "measured seconds per run (set-up and warm-up come on top)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	build := flag.String("build", ".bench_build", "directory for scratch data and span output")
	flag.Parse()

	sc := findScenario(*workload)
	if sc == nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "portalbench: need -workload (fig1-generate|discovery-gateway|durable-session), -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	if err := execute(sc, *seed, *secs, *trace == 1, *build); err != nil {
		fmt.Fprintln(os.Stderr, "portalbench:", err)
		os.Exit(1)
	}
}

// execute runs one invocation and prints its report, ending with the JSON
// result line.
func execute(sc *scenario, seed uint64, secs float64, trace bool, build string) error {
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "work-"+sc.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	logger, closeLog, err := drainedLogger()
	if err != nil {
		return err
	}
	defer closeLog()

	x := &run{
		sc: sc, seed: seed, seconds: secs,
		conns:  runtime.NumCPU(),
		work:   work,
		logger: logger,
	}
	if sc.prepare != nil {
		if err := sc.prepare(x); err != nil {
			return err
		}
	}
	var res *result
	if trace {
		res, err = x.traced(filepath.Join(build, "spans-"+sc.name+".jsonl"))
	} else {
		res, err = x.measure()
	}
	if err != nil {
		return err
	}
	fmt.Printf("portalbench workload=%s seed=%d seconds=%g trace=%v rate=%.0f/s conns=%d\n",
		sc.name, seed, secs, trace, sc.rate, x.conns)
	fmt.Println(hostFacts(work, sc.durable))
	for _, m := range res.metrics {
		fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	fmt.Printf("ops attempted=%d succeeded=%d failed=%d\n", x.total.attempted, x.total.attempted-x.total.failed, x.total.failed)
	if x.total.firstErr != nil {
		fmt.Println("first failure:", x.total.firstErr)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.correct, x.total.attempted, x.total.failed, map[string]map[string]any{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// --- statistics and host facts ----------------------------------------------------

// quantile is the nearest-rank q-quantile; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// div is a/b, or 0 when nothing was counted.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssPeakMB is the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

func hostFacts(work string, durable bool) string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fsync := "not exercised"
	if durable {
		fsync = "on (wal.Options{}), data directory on " + fsType(work)
	}
	return fmt.Sprintf("host nproc=%d GOMAXPROCS=%d cpu=%q go=%s traffic=loopback-tcp(127.0.0.1,net/http) fsync=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), fsync)
}

// fsType names the file system holding dir, so a WAL figure states what
// its fsyncs hit.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-magic-%#x", st.Type)
}
