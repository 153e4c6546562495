package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/batchscript"
	"repro/internal/contextmgr"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/persist"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/uddi"
	"repro/internal/wal"
)

// flushToken authenticates the gateway's __flush posts to its backends
// (the -flush-token of portalserver and gateway).
const flushToken = "portalbench-flush"

// listener serves one handler over loopback TCP. The socket is bound
// first, because the stack needs its base URL before the handler exists.
type listener struct {
	base string
	ln   net.Listener
	srv  *http.Server
	done chan error
}

// listen binds 127.0.0.1:port. Fixed ports give each server the stable
// identity a deployment's servers have, which matters because the gateway
// places backends on its hash ring by base URL: a busy port fails the run
// rather than changing the workload.
func listen(port int) (*listener, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, err
	}
	return &listener{base: "http://" + ln.Addr().String(), ln: ln}, nil
}

func (l *listener) serve(h http.Handler) {
	l.srv = &http.Server{Handler: h}
	l.done = make(chan error, 1)
	go func() { l.done <- l.srv.Serve(l.ln) }()
}

// close stops serving and waits for the serve loop to return.
func (l *listener) close() error {
	if l.srv == nil {
		return l.ln.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// nodeOptions selects what one portal node holds.
type nodeOptions struct {
	name string
	port int
	// dataDir, when set, puts the context store behind a WAL there
	// (portalserver -data); empty keeps it in memory.
	dataDir string
	// seedUDDI publishes the registry's contents; nil boot-publishes the
	// node's own /ssp services, as portalserver does on an empty registry.
	seedUDDI func(*uddi.Registry) error
	logger   *log.Logger
	rec      *recorder // nil: no tracing wrappers at all
}

// node is one portal server: /ssp (BatchScriptGenerator, ContextManager)
// behind Logging, and /uddi with its inquiry cache and __flush op, wired
// the way cmd/portalserver wires them.
type node struct {
	srv    *rpc.Server
	l      *listener
	cache  *rpc.ResponseCache
	store  *contextmgr.Store
	traced *tracedStore // the WAL wrapper, when traced and durable
}

func startNode(o nodeOptions) (*node, error) {
	l, err := listen(o.port)
	if err != nil {
		return nil, err
	}
	n := &node{l: l, srv: rpc.NewServer(o.name, l.base), store: contextmgr.NewStore()}
	if o.dataDir != "" {
		wl, err := wal.Open(filepath.Join(o.dataDir, "contextmgr"), wal.Options{})
		if err != nil {
			l.close()
			return nil, err
		}
		var st persist.Store = wl
		if o.rec != nil {
			n.traced = &tracedStore{Store: wl, rec: o.rec}
			st = n.traced
		}
		if err := n.store.Persist(st); err != nil {
			wl.Close()
			l.close()
			return nil, fmt.Errorf("recover contextmgr: %w", err)
		}
	}
	var provMW, svcMW []core.Middleware
	if o.rec != nil {
		provMW = []core.Middleware{o.rec.providerMW}
		svcMW = []core.Middleware{o.rec.serviceMW}
	}
	register := func(p *core.Provider, svc *core.Service) {
		for _, mw := range svcMW {
			svc.Use(mw)
		}
		p.MustRegister(svc)
	}

	ssp := n.srv.Provider("/ssp", append(provMW, rpc.Logging(o.logger))...)
	register(ssp, batchscript.NewService(batchscript.NewIUGenerator()))
	register(ssp, contextmgr.NewMonolithService(n.store))

	registry := uddi.NewRegistry()
	seed := o.seedUDDI
	if seed == nil {
		seed = func(r *uddi.Registry) error { return bootPublish(r, ssp) }
	}
	if err := seed(registry); err != nil {
		n.close()
		return nil, err
	}
	uddiSvc := uddi.NewService(registry)
	n.cache = rpc.NewResponseCache(30*time.Second, 4096)
	uddiSvc.Use(n.cache.Middleware(rpc.OpPrefixes("find", "get")))
	n.srv.Stats().RegisterCache("uddi", n.cache)
	register(n.srv.Provider("/uddi", provMW...), uddiSvc)
	n.srv.RegisterFlushCache(uddi.ServiceNS, n.cache)
	n.srv.EnableCacheFlush(flushToken)

	var h http.Handler = n.srv.Handler()
	if o.rec != nil {
		h = o.rec.handler(spanServer, h)
	}
	l.serve(h)
	return n, nil
}

// bootPublish is portalserver's boot publication of its /ssp services.
func bootPublish(registry *uddi.Registry, ssp *core.Provider) error {
	biz, err := registry.SaveBusiness(uddi.BusinessEntity{Name: "Portal Server", Description: "all-in-one deployment"})
	if err != nil {
		return err
	}
	for _, svc := range ssp.Services() {
		tm, err := registry.SaveTModel(uddi.TModel{Name: "gce:" + svc.Contract.Name, OverviewURL: ssp.EndpointFor(svc) + "?wsdl"})
		if err != nil {
			return err
		}
		if _, err := registry.SaveService(uddi.BusinessService{
			BusinessKey: biz.Key,
			Name:        svc.Contract.Name,
			Description: svc.Contract.Doc,
			Bindings:    []uddi.BindingTemplate{{AccessPoint: ssp.EndpointFor(svc), TModelKeys: []string{tm.Key}}},
		}); err != nil {
			return err
		}
	}
	return nil
}

// close stops serving, then flushes and closes the node's log.
func (n *node) close() error {
	err := n.l.close()
	return errors.Join(err, n.store.ClosePersist())
}

// front is the federating gateway of cmd/gateway in front of the nodes.
type front struct {
	gw      *gateway.Gateway
	l       *listener
	pool    *soap.ClientPool // the traced forward leg's pool; nil untraced
	flushes atomic.Int64     // flush posts, counted when traced
}

func startGateway(port int, backends []string, rec *recorder) (*front, error) {
	l, err := listen(port)
	if err != nil {
		return nil, err
	}
	f := &front{l: l, gw: gateway.New("gateway", l.base)}
	f.gw.FlushToken = flushToken
	if rec != nil {
		// The forward leg gets its own client pool whose transports carry
		// the trace header to the backend.
		f.pool = &soap.ClientPool{Timeout: 30 * time.Second}
		for _, b := range backends {
			c := f.pool.For(b)
			c.Transport = &propagateRT{base: c.Transport}
		}
		f.gw.Forward = &forwarder{rec: rec, inner: &gateway.HTTPForwarder{Pool: f.pool}}
		flush := f.gw.Flush
		f.gw.Flush = func(backend, ns string) error {
			f.flushes.Add(1)
			return flush(backend, ns)
		}
	}
	if err := f.gw.Mount(backends...); err != nil {
		l.close()
		return nil, err
	}
	f.gw.StartHealth(2 * time.Second)
	var h http.Handler = f.gw.Handler()
	if rec != nil {
		h = rec.handler(spanGateway, h)
	}
	l.serve(h)
	return f, nil
}

// close stops the gateway and drops its pooled backend connections, so the
// backends' own shutdown finds them gone rather than waiting on them.
func (f *front) close() error {
	err := f.l.close()
	f.gw.Close()
	if f.pool != nil {
		f.pool.CloseIdle()
	}
	return err
}

// seedLog writes the durable workload's seeded sessions into a new log
// under dir. Seeding skips fsync: it is input preparation, not the
// measured write path, and Close still writes every record.
func seedLog(dir string, m *sessionModel) error {
	l, err := wal.Open(filepath.Join(dir, "contextmgr"), wal.Options{NoSync: true})
	if err != nil {
		return err
	}
	st := contextmgr.NewStore()
	if err := st.Persist(l); err != nil {
		l.Close()
		return err
	}
	return errors.Join(m.seedStore(st), st.ClosePersist())
}

// verifyLog replays dir into a fresh store and checks it against every
// acknowledged write of the run.
func verifyLog(dir string, m *sessionModel) error {
	l, err := wal.Open(filepath.Join(dir, "contextmgr"), wal.Options{})
	if err != nil {
		return err
	}
	st := contextmgr.NewStore()
	if err := st.Persist(l); err != nil {
		l.Close()
		return fmt.Errorf("replay: %w", err)
	}
	return errors.Join(m.verifyRecovered(st), st.ClosePersist())
}
