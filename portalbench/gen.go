package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/batchscript"
	"repro/internal/contextmgr"
	"repro/internal/grid"
	"repro/internal/soap"
	"repro/internal/uddi"
)

// opClass splits operations the way a portal user experiences them:
// reads (inquiries, gets, script generation) and state changes.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
)

func (c opClass) String() string {
	if c == classWrite {
		return "write"
	}
	return "read"
}

// request is one generated SOAP call plus what its oracle needs to judge
// the answer. Everything in it is derived from the workload seed.
type request struct {
	class opClass
	path  string // endpoint path on the front door
	call  soap.Call

	// Oracle inputs; which are set depends on the workload.
	script batchscript.Request // fig1-generate: the request Generate is run on
	index  int                 // discovery: seeded entity; session: write slot or key
	key    string              // session: property key "user/session/name"

	// sent and acked are stamped by the client for the post-run recovery
	// check of durable-session writes.
	sent, acked time.Time
}

// encode appends the request's SOAP envelope exactly as the client puts
// it on the wire.
func (r *request) encode(buf *bytes.Buffer) {
	r.call.WireEnvelope().AppendTo(buf)
}

// model is one workload's seeded input generator and correctness oracle.
// next is called under the client's lock, so models need no locking of
// their own for generator state; check runs concurrently.
type model interface {
	next() *request
	// probe returns a read whose answer is known from the seed alone; set-up
	// time ends at its first correct response. It must not advance next's
	// stream.
	probe() *request
	check(r *request, resp *soap.Response) error
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

const alnum = "abcdefghijklmnopqrstuvwxyz0123456789"

func word(r *rand.Rand, min, max int) string {
	n := min + r.IntN(max-min+1)
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[r.IntN(len(alnum))]
	}
	return string(b)
}

// --- fig1-generate ------------------------------------------------------------

// fig1Model drives generateScript on the IU generator (PBS and GRD) with
// seeded schedulers, job names and 0-32 arguments, giving request
// envelopes of roughly 0.5-3 KB.
type fig1Model struct {
	rng, probeRNG *rand.Rand
	oracle        *batchscript.Generator
}

func newFig1Model(seed uint64) *fig1Model {
	return &fig1Model{
		rng:      newRand(seed, 1),
		probeRNG: newRand(seed, 2),
		oracle:   batchscript.NewIUGenerator(),
	}
}

var (
	fig1Schedulers  = []grid.SchedulerKind{grid.PBS, grid.GRD}
	fig1Queues      = []string{"", "batch", "normal", "debug", "long", "express"}
	fig1Executables = []string{"/usr/local/bin/gaussian", "/usr/local/namd/namd2", "/home/portal/bin/sim", "/usr/bin/mpirun", "/usr/local/amber/bin/sander"}
)

func (m *fig1Model) gen(r *rand.Rand) *request {
	req := batchscript.Request{
		Scheduler:  fig1Schedulers[r.IntN(len(fig1Schedulers))],
		JobName:    "job-" + word(r, 4, 16),
		Executable: fig1Executables[r.IntN(len(fig1Executables))],
		Queue:      fig1Queues[r.IntN(len(fig1Queues))],
		Nodes:      1 + r.IntN(128),
		WallTime:   time.Duration(1+r.IntN(1440)) * time.Minute,
	}
	for n := r.IntN(33); n > 0; n-- {
		req.Arguments = append(req.Arguments, "-"+word(r, 1, 8)+"="+word(r, 4, 48))
	}
	if r.IntN(2) == 0 {
		req.Stdin = "input-" + word(r, 3, 10) + ".dat"
	}
	return &request{
		class:  classRead,
		path:   "/ssp/BatchScriptGenerator",
		script: req,
		call: soap.Call{ServiceNS: batchscript.ServiceNS, Method: "generateScript", Params: []soap.Value{
			soap.Str("scheduler", string(req.Scheduler)),
			soap.Str("jobName", req.JobName),
			soap.Str("executable", req.Executable),
			soap.StrArray("arguments", req.Arguments),
			soap.Str("stdin", req.Stdin),
			soap.Str("queue", req.Queue),
			soap.Int("nodes", req.Nodes),
			soap.Int("wallTimeSeconds", int(req.WallTime/time.Second)),
		}},
	}
}

func (m *fig1Model) next() *request  { return m.gen(m.rng) }
func (m *fig1Model) probe() *request { return m.gen(m.probeRNG) }

// check compares the returned script with a direct Generate on the same
// request.
func (m *fig1Model) check(r *request, resp *soap.Response) error {
	want, err := m.oracle.Generate(r.script)
	if err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	if got := resp.ReturnText("script"); got != want {
		return fmt.Errorf("generateScript: script differs from a direct Generate (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// --- discovery-gateway --------------------------------------------------------

// Discovery data set. The distinct inquiry keys (one per business, tModel
// and service) number several times the 4096-entry response cache.
const (
	discBusinesses = 4000
	discTModels    = 8000
	discServices   = 12000
	// discZipfS skews inquiry popularity; discPublishPer is one publish per
	// this many requests, rare enough that the fleet-wide flush each
	// publish triggers leaves the cache hit ratio well above one half.
	discZipfS      = 1.2
	discPublishPer = 5000
)

type discService struct {
	key, name, access string
	biz               int   // index into businesses
	tms               []int // indexes into tmodels
	// business and tmodels are the keys behind biz and tms, filled once
	// the keys are minted.
	business string
	tmodels  []string
}

// discoveryData is the seeded registry content. Keys are minted by a
// private uddi.Registry fed the same publications the backends get, so
// they are known without asking a server.
type discoveryData struct {
	businesses []uddi.BusinessEntity // Key filled
	tmodels    []uddi.TModel         // Key filled
	services   []discService
	// byTModel lists the seeded service indexes bound to each tModel.
	byTModel [][]int
}

func newDiscoveryData(seed uint64) (*discoveryData, error) {
	r := newRand(seed, 10)
	d := &discoveryData{byTModel: make([][]int, discTModels)}
	for i := 0; i < discBusinesses; i++ {
		d.businesses = append(d.businesses, uddi.BusinessEntity{
			Name:        fmt.Sprintf("site-%05d", i),
			Description: "computing center " + word(r, 8, 40),
		})
	}
	for i := 0; i < discTModels; i++ {
		d.tmodels = append(d.tmodels, uddi.TModel{
			Name:        fmt.Sprintf("gce:iface-%05d", i),
			Description: "portal interface " + word(r, 8, 32),
			OverviewURL: fmt.Sprintf("http://wsdl.example.org/iface-%05d?wsdl", i),
		})
	}
	for i := 0; i < discServices; i++ {
		s := discService{
			name:   fmt.Sprintf("svc-%05d", i),
			access: fmt.Sprintf("http://host-%03d.example.org/ssp/svc-%05d", r.IntN(500), i),
			biz:    r.IntN(discBusinesses),
			tms:    []int{r.IntN(discTModels)},
		}
		if t := r.IntN(discTModels); r.IntN(2) == 0 && t != s.tms[0] {
			s.tms = append(s.tms, t)
		}
		for _, t := range s.tms {
			d.byTModel[t] = append(d.byTModel[t], i)
		}
		d.services = append(d.services, s)
	}
	// Mint the keys exactly as every backend will.
	if err := d.seedRegistry(uddi.NewRegistry(), true); err != nil {
		return nil, err
	}
	return d, nil
}

// seedRegistry publishes the data set into reg in a fixed order, so every
// registry mints identical keys. With record set it stores the minted keys
// into d (done once, on the private registry); otherwise it checks them.
func (d *discoveryData) seedRegistry(reg *uddi.Registry, record bool) error {
	mint := func(what string, i int, dst *string, got string) error {
		if record {
			*dst = got
		} else if got != *dst {
			return fmt.Errorf("seed: %s %d minted key %s, want %s", what, i, got, *dst)
		}
		return nil
	}
	for i := range d.businesses {
		b := &d.businesses[i]
		saved, err := reg.SaveBusiness(uddi.BusinessEntity{Name: b.Name, Description: b.Description})
		if err != nil {
			return err
		}
		if err := mint("business", i, &b.Key, saved.Key); err != nil {
			return err
		}
	}
	for i := range d.tmodels {
		t := &d.tmodels[i]
		saved, err := reg.SaveTModel(uddi.TModel{Name: t.Name, Description: t.Description, OverviewURL: t.OverviewURL})
		if err != nil {
			return err
		}
		if err := mint("tModel", i, &t.Key, saved.Key); err != nil {
			return err
		}
	}
	for i := range d.services {
		s := &d.services[i]
		if record {
			s.business = d.businesses[s.biz].Key
			s.tmodels = nil
			for _, t := range s.tms {
				s.tmodels = append(s.tmodels, d.tmodels[t].Key)
			}
		}
		saved, err := reg.SaveService(uddi.BusinessService{
			BusinessKey: s.business,
			Name:        s.name,
			Description: "batch script generation",
			Bindings:    []uddi.BindingTemplate{{AccessPoint: s.access, TModelKeys: s.tmodels}},
		})
		if err != nil {
			return err
		}
		if err := mint("service", i, &s.key, saved.Key); err != nil {
			return err
		}
	}
	return nil
}

// discoveryModel issues Zipf-distributed inquiries over the seeded keys
// (findServiceByTModel, getServiceDetail, findBusiness) with one
// saveService publish per discPublishPer requests.
type discoveryModel struct {
	d                     *discoveryData
	rng, probeRNG         *rand.Rand
	zBiz, zTModel, zSvc   *rand.Zipf
	permBiz, permT, permS []int
	n                     int

	mu sync.Mutex
	// published maps a tModel key to the names of services published
	// against it during the run; an inquiry may or may not see them,
	// depending on the backend that took the publish.
	published map[string]map[string]bool
}

func newDiscoveryModel(seed uint64, d *discoveryData) *discoveryModel {
	r := newRand(seed, 11)
	m := &discoveryModel{
		d:         d,
		rng:       r,
		probeRNG:  newRand(seed, 12),
		zBiz:      rand.NewZipf(r, discZipfS, 1, discBusinesses-1),
		zTModel:   rand.NewZipf(r, discZipfS, 1, discTModels-1),
		zSvc:      rand.NewZipf(r, discZipfS, 1, discServices-1),
		permBiz:   newRand(seed, 13).Perm(discBusinesses),
		permT:     newRand(seed, 14).Perm(discTModels),
		permS:     newRand(seed, 15).Perm(discServices),
		published: map[string]map[string]bool{},
	}
	return m
}

func uddiCall(method string, params ...soap.Value) soap.Call {
	return soap.Call{ServiceNS: uddi.ServiceNS, Method: method, Params: params}
}

const uddiPath = "/uddi/UDDIRegistry"

func (m *discoveryModel) next() *request {
	m.n++
	if m.n%discPublishPer == 0 {
		t := m.d.tmodels[m.rng.IntN(discTModels)].Key
		name := fmt.Sprintf("pub-%06d", m.n)
		m.mu.Lock()
		if m.published[t] == nil {
			m.published[t] = map[string]bool{}
		}
		m.published[t][name] = true
		m.mu.Unlock()
		return &request{class: classWrite, path: uddiPath, call: uddiCall("saveService",
			soap.Str("businessKey", m.d.businesses[m.rng.IntN(discBusinesses)].Key),
			soap.Str("name", name),
			soap.Str("description", "published under load"),
			soap.Str("accessPoint", "http://new.example.org/ssp/"+name),
			soap.StrArray("tModelKeys", []string{t}))}
	}
	switch p := m.rng.IntN(10); {
	case p < 4:
		i := m.permT[m.zTModel.Uint64()]
		return &request{class: classRead, path: uddiPath, index: i,
			call: uddiCall("findServiceByTModel", soap.Str("tModelKey", m.d.tmodels[i].Key))}
	case p < 8:
		i := m.permS[m.zSvc.Uint64()]
		return &request{class: classRead, path: uddiPath, index: i,
			call: uddiCall("getServiceDetail", soap.Str("serviceKey", m.d.services[i].key))}
	default:
		i := m.permBiz[m.zBiz.Uint64()]
		return &request{class: classRead, path: uddiPath, index: i,
			call: uddiCall("findBusiness", soap.Str("name", m.d.businesses[i].Name))}
	}
}

func (m *discoveryModel) probe() *request {
	i := m.probeRNG.IntN(discServices)
	return &request{class: classRead, path: uddiPath, index: i,
		call: uddiCall("getServiceDetail", soap.Str("serviceKey", m.d.services[i].key))}
}

func (m *discoveryModel) check(r *request, resp *soap.Response) error {
	v, _ := resp.Return("")
	switch r.call.Method {
	case "saveService":
		if k := resp.ReturnText("serviceKey"); !strings.HasPrefix(k, "uuid:") {
			return fmt.Errorf("saveService: bad key %q", k)
		}
		return nil
	case "getServiceDetail":
		if v.XML == nil {
			return fmt.Errorf("getServiceDetail: no service element")
		}
		return m.checkService(uddi.ServiceFromElement(v.XML), &m.d.services[r.index])
	case "findServiceByTModel":
		if v.XML == nil {
			return fmt.Errorf("findServiceByTModel: no serviceList")
		}
		t := m.d.tmodels[r.index].Key
		want := map[string]*discService{}
		for _, si := range m.d.byTModel[r.index] {
			want[m.d.services[si].key] = &m.d.services[si]
		}
		seen := 0
		for _, s := range uddi.ServicesFromList(v.XML) {
			if ws, ok := want[s.Key]; ok {
				if err := m.checkService(s, ws); err != nil {
					return err
				}
				seen++
				continue
			}
			m.mu.Lock()
			ok := m.published[t][s.Name]
			m.mu.Unlock()
			if !ok {
				return fmt.Errorf("findServiceByTModel(%s): unexpected service %s %q", t, s.Key, s.Name)
			}
		}
		if seen != len(want) {
			return fmt.Errorf("findServiceByTModel(%s): %d of %d seeded services", t, seen, len(want))
		}
		return nil
	case "findBusiness":
		if v.XML == nil {
			return fmt.Errorf("findBusiness: no businessList")
		}
		b := m.d.businesses[r.index]
		list := v.XML.ChildrenNamed("businessEntity")
		if len(list) != 1 || list[0].AttrDefault("businessKey", "") != b.Key || list[0].ChildText("name") != b.Name {
			return fmt.Errorf("findBusiness(%s): want exactly %s", b.Name, b.Key)
		}
		return nil
	}
	return fmt.Errorf("unexpected operation %s", r.call.Method)
}

func (m *discoveryModel) checkService(got *uddi.BusinessService, want *discService) error {
	if got.Key != want.key || got.Name != want.name || got.BusinessKey != want.business ||
		len(got.Bindings) != 1 || got.Bindings[0].AccessPoint != want.access ||
		!slices.Equal(got.Bindings[0].TModelKeys, want.tmodels) {
		return fmt.Errorf("service %s: returned %+v", want.key, got)
	}
	return nil
}

// --- durable-session ----------------------------------------------------------

// Session data set: a few hundred users with seeded session contexts and
// properties, all in the seeded log the run starts by replaying.
const (
	sessUsers       = 300
	sessPerUser     = 2
	sessProps       = 8
	sessProblem     = "problem"
	sessReadShare   = 70 // percent getSessionProperty
	sessCreateShare = 5  // percent createSessionContext; the rest set
)

type sessWrite struct {
	key, value  string
	sent, acked time.Time
	ok          bool
}

// sessionModel drives ContextManager session state: ~70% reads, ~25%
// property writes and ~5% new session contexts. It remembers every value
// written per key, for the read oracle and the recovery check.
type sessionModel struct {
	seed          uint64
	rng, probeRNG *rand.Rand
	n             int

	mu sync.Mutex
	// values holds, per key, every value ever sent for it (seed first).
	values map[string][]string
	// writes lists every property write in generation order; creates lists
	// the session paths created during the run.
	writes  []*sessWrite
	creates []*sessWrite
}

func sessUser(u int) string      { return fmt.Sprintf("user%03d", u) }
func sessName(s int) string      { return fmt.Sprintf("session%d", s) }
func sessProp(p int) string      { return fmt.Sprintf("prop%d", p) }
func sessKey(u, s, p int) string { return sessUser(u) + "/" + sessName(s) + "/" + sessProp(p) }
func seedValue(seed uint64, k string) string {
	return fmt.Sprintf("seed-%x-%s", seed%0xffff, k)
}

func newSessionModel(seed uint64) *sessionModel {
	m := &sessionModel{seed: seed, rng: newRand(seed, 20), probeRNG: newRand(seed, 21), values: map[string][]string{}}
	for u := 0; u < sessUsers; u++ {
		for s := 0; s < sessPerUser; s++ {
			for p := 0; p < sessProps; p++ {
				k := sessKey(u, s, p)
				m.values[k] = []string{seedValue(seed, k)}
			}
		}
	}
	return m
}

// seedStore writes the seeded users, sessions and properties into st.
func (m *sessionModel) seedStore(st *contextmgr.Store) error {
	for u := 0; u < sessUsers; u++ {
		for s := 0; s < sessPerUser; s++ {
			if err := st.CreatePlaceholder(sessUser(u), sessProblem, sessName(s)); err != nil {
				return err
			}
			for p := 0; p < sessProps; p++ {
				k := sessKey(u, s, p)
				if err := st.SetProp([]string{sessUser(u), sessProblem, sessName(s)}, sessProp(p), seedValue(m.seed, k)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

const ctxPath = "/ssp/ContextManager"

func sessCall(method string, params ...soap.Value) soap.Call {
	return soap.Call{ServiceNS: contextmgr.MonolithNS, Method: method, Params: params}
}

func (m *sessionModel) read(r *rand.Rand) *request {
	u, s, p := r.IntN(sessUsers), r.IntN(sessPerUser), r.IntN(sessProps)
	return &request{class: classRead, path: ctxPath, key: sessKey(u, s, p), call: sessCall("getSessionProperty",
		soap.Str("user", sessUser(u)), soap.Str("problem", sessProblem), soap.Str("session", sessName(s)),
		soap.Str("name", sessProp(p)))}
}

func (m *sessionModel) next() *request {
	m.n++
	switch p := m.rng.IntN(100); {
	case p < sessReadShare:
		return m.read(m.rng)
	case p < sessReadShare+sessCreateShare:
		u := m.rng.IntN(sessUsers)
		name := fmt.Sprintf("new%06d", m.n)
		w := &sessWrite{key: sessUser(u) + "/" + name}
		m.mu.Lock()
		m.creates = append(m.creates, w)
		m.mu.Unlock()
		return &request{class: classWrite, path: ctxPath, index: len(m.creates) - 1, call: sessCall("createSessionContext",
			soap.Str("user", sessUser(u)), soap.Str("problem", sessProblem), soap.Str("session", name))}
	default:
		u, s, p := m.rng.IntN(sessUsers), m.rng.IntN(sessPerUser), m.rng.IntN(sessProps)
		k := sessKey(u, s, p)
		v := fmt.Sprintf("w%06d-%s", m.n, word(m.rng, 8, 120))
		w := &sessWrite{key: k, value: v}
		m.mu.Lock()
		m.values[k] = append(m.values[k], v)
		m.writes = append(m.writes, w)
		m.mu.Unlock()
		return &request{class: classWrite, path: ctxPath, key: k, index: len(m.writes) - 1, call: sessCall("setSessionProperty",
			soap.Str("user", sessUser(u)), soap.Str("problem", sessProblem), soap.Str("session", sessName(s)),
			soap.Str("name", sessProp(p)), soap.Str("value", v))}
	}
}

func (m *sessionModel) probe() *request { return m.read(m.probeRNG) }

func (m *sessionModel) check(r *request, resp *soap.Response) error {
	switch r.call.Method {
	case "getSessionProperty":
		got := resp.ReturnText("value")
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, v := range m.values[r.key] {
			if v == got {
				return nil
			}
		}
		return fmt.Errorf("getSessionProperty(%s) = %q, never written", r.key, got)
	case "setSessionProperty", "createSessionContext":
		if resp.ReturnText("ok") != "true" {
			return fmt.Errorf("%s(%s): ok=%q", r.call.Method, r.key, resp.ReturnText("ok"))
		}
		m.mu.Lock()
		w := m.writes
		if r.call.Method == "createSessionContext" {
			w = m.creates
		}
		w[r.index].sent, w[r.index].acked, w[r.index].ok = r.sent, r.acked, true
		m.mu.Unlock()
		return nil
	}
	return fmt.Errorf("unexpected operation %s", r.call.Method)
}

// verifyRecovered checks a store replayed from the run's data directory:
// every acknowledged session context exists exactly once (each user's
// session count is the seeded count plus its acknowledged creates), and
// every property holds a value some write could have left last — one not
// superseded by another acknowledged write that was sent after it was
// acknowledged.
func (m *sessionModel) verifyRecovered(st *contextmgr.Store) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	created := map[string]int{}
	for _, c := range m.creates {
		if !c.ok {
			return fmt.Errorf("recovery: create %s was never acknowledged", c.key)
		}
		user, session := splitUserSession(c.key)
		if !st.Exists([]string{user, sessProblem, session}) {
			return fmt.Errorf("recovery: acknowledged session %s lost", c.key)
		}
		created[user]++
	}
	for u := 0; u < sessUsers; u++ {
		n, err := st.CountChildren([]string{sessUser(u), sessProblem})
		if err != nil {
			return fmt.Errorf("recovery: %v", err)
		}
		if want := sessPerUser + created[sessUser(u)]; n != want {
			return fmt.Errorf("recovery: %s has %d sessions, want %d", sessUser(u), n, want)
		}
	}
	perKey := map[string][]*sessWrite{}
	for _, w := range m.writes {
		if !w.ok {
			return fmt.Errorf("recovery: write to %s was never acknowledged", w.key)
		}
		perKey[w.key] = append(perKey[w.key], w)
	}
	for u := 0; u < sessUsers; u++ {
		for s := 0; s < sessPerUser; s++ {
			for p := 0; p < sessProps; p++ {
				k := sessKey(u, s, p)
				got, err := st.GetProp([]string{sessUser(u), sessProblem, sessName(s)}, sessProp(p))
				if err != nil {
					return fmt.Errorf("recovery: %v", err)
				}
				if !finalAllowed(perKey[k], seedValue(m.seed, k), got) {
					return fmt.Errorf("recovery: %s = %q is not the last acknowledged write", k, got)
				}
			}
		}
	}
	return nil
}

// finalAllowed reports whether got may be a register's final value after
// the acknowledged writes ws (initial value seed): got must be written by
// some w that no other write w' supersedes, where w' supersedes w when w
// was acknowledged before w' was sent.
func finalAllowed(ws []*sessWrite, seed, got string) bool {
	if len(ws) == 0 {
		return got == seed
	}
	for _, w := range ws {
		if w.value != got {
			continue
		}
		superseded := false
		for _, o := range ws {
			if o != w && w.acked.Before(o.sent) {
				superseded = true
				break
			}
		}
		if !superseded {
			return true
		}
	}
	return false
}

func splitUserSession(k string) (user, session string) {
	for i := 0; i < len(k); i++ {
		if k[i] == '/' {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}
