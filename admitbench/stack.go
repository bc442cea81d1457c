package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"soar/internal/ha"
	"soar/internal/naas"
	"soar/internal/obs"
	"soar/internal/sched"
	"soar/internal/topology"
)

// The serving stack under test is the one soar-naasd builds with its
// shipped defaults: BT(2048), capacity 4, a 200 µs batching window,
// re-packing every second with 8 moves, GOMAXPROCS workers, no solve
// cache and no fused batch solve.
const (
	treeSize = 2048
	podLevel = 3 // 8 pods of BT(2048)
	standbys = 2 // warm standbys per shard
)

func daemonConfig() sched.Config {
	return sched.Config{
		Capacity: 4,
		Window:   200 * time.Microsecond,
		Repack:   sched.RepackConfig{Every: time.Second, MaxMoves: 8},
	}
}

// spanHeader carries the event index of a traced request, so the
// server-side span and the client-side spans share one request id.
const spanHeader = "X-Bench-Id"

// traceHandler wraps the server's handler. With no sink installed it
// only forwards; with one, it times ServeHTTP for requests that carry
// spanHeader (the naas.serve span).
type traceHandler struct {
	next http.Handler
	sink atomic.Pointer[[]atomic.Int64]
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sink := h.sink.Load()
	if sink == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	if id, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil && id >= 0 && id < len(*sink) {
		(*sink)[id].Store(int64(d))
	}
}

// stack is one booted serving stack behind a loopback HTTP listener.
type stack struct {
	svc    *naas.Service
	cl     *ha.Cluster
	th     *traceHandler
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	// initRes is each scheduler's residual right after boot: what a
	// fully drained run must return to.
	initRes [][]int
}

// newClient returns an HTTP client holding at most `conns` loopback
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// boot builds the stack and returns it with its set-up time: the tree,
// the service or cluster, the listener, /v1/readyz answering 200 and,
// for the cluster, every standby attached.
func boot(w *workload, client *http.Client) (*stack, time.Duration, error) {
	t0 := time.Now()
	tree, err := topology.BT(treeSize)
	if err != nil {
		return nil, 0, err
	}
	st := &stack{client: client, served: make(chan error, 1)}
	var h http.Handler
	if w.kind == kindPodLocal {
		st.cl, err = ha.NewCluster(tree, ha.Options{Level: podLevel, Replicas: standbys, Sched: daemonConfig()})
		if err != nil {
			return nil, 0, err
		}
		h = naas.NewSharded(st.cl).Handler()
	} else {
		st.svc = naas.NewServiceWith(tree, daemonConfig())
		h = st.svc.Handler()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeBackend()
		return nil, 0, err
	}
	st.th = &traceHandler{next: h}
	st.srv = &http.Server{Handler: st.th, ReadHeaderTimeout: 5 * time.Second}
	go func() { st.served <- st.srv.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	if err := st.waitReady(10 * time.Second); err != nil {
		st.close()
		return nil, 0, err
	}
	setup := time.Since(t0)
	for _, s := range st.schedulers() {
		st.initRes = append(st.initRes, s.Residual())
	}
	return st, setup, nil
}

// waitReady polls /v1/readyz, then (cluster) the checkpoint streams
// served to standbys, until the stack is ready or the deadline passes.
func (st *stack) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		code, _, err := st.get("/v1/readyz")
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("readyz not 200 after %v (code %d, err %v)", limit, code, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if st.cl == nil {
		return nil
	}
	want := float64(st.cl.Shards() * standbys)
	for {
		code, body, err := st.get("/metrics")
		if err == nil && code == http.StatusOK {
			if m, err := parseMetrics(bytes.NewReader(body)); err == nil && m["soar_ha_ckpt_streams_total"] >= want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standbys not attached after %v", limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (st *stack) get(path string) (int, []byte, error) {
	resp, err := st.client.Get(st.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// close stops the listener, waits for the server loop to return and
// shuts the backend down.
func (st *stack) close() {
	st.srv.Close()
	<-st.served
	st.client.Transport.(*http.Transport).CloseIdleConnections()
	st.closeBackend()
}

func (st *stack) closeBackend() {
	if st.cl != nil {
		st.cl.Close()
	}
	if st.svc != nil {
		st.svc.Close()
	}
}

// schedulers returns the serving schedulers: the one service's, or
// every shard primary's.
func (st *stack) schedulers() []*sched.Scheduler {
	if st.svc != nil {
		return []*sched.Scheduler{st.svc.Scheduler()}
	}
	out := make([]*sched.Scheduler, st.cl.Shards())
	for s := range out {
		out[s] = st.cl.ShardScheduler(s)
	}
	return out
}

// counters sums every sample of the stack's registries by sample name
// (scheduler families across shards, plus the cluster's soar_ha_*).
func (st *stack) counters() map[string]float64 {
	regs := []*obs.Registry{}
	if st.svc != nil {
		regs = append(regs, st.svc.Registry())
	} else {
		regs = append(regs, st.cl.Registry())
		for s := 0; s < st.cl.Shards(); s++ {
			regs = append(regs, st.cl.ShardRegistry(s))
		}
	}
	out := map[string]float64{}
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			continue
		}
		m, err := parseMetrics(&buf)
		if err != nil {
			continue
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	fams, err := obs.ParseText(r)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if _, bucket := s.Labels["le"]; !bucket {
				out[s.Name] += s.Value
			}
		}
	}
	return out, nil
}

// audit checks the drained end state: every scheduler's own audit
// passes, no tenant is left, every residual is back to its boot value
// and (cluster) no failover happened.
func (st *stack) audit() []string {
	var bad []string
	if st.svc != nil {
		if err := st.svc.Scheduler().Audit(); err != nil {
			bad = append(bad, "audit: "+err.Error())
		}
	} else {
		if err := st.cl.Audit(); err != nil {
			bad = append(bad, "audit: "+err.Error())
		}
		if f := st.cl.Metrics().Failovers(); f != 0 {
			bad = append(bad, fmt.Sprintf("ha: %d failovers", f))
		}
	}
	for i, s := range st.schedulers() {
		if s == nil {
			bad = append(bad, fmt.Sprintf("scheduler %d: no serving primary", i))
			continue
		}
		if n := s.Snapshot().Tenants; n != 0 {
			bad = append(bad, fmt.Sprintf("scheduler %d: %d tenants left after every release", i, n))
		}
		if !slices.Equal(s.Residual(), st.initRes[i]) {
			bad = append(bad, fmt.Sprintf("scheduler %d: residual differs from the initial capacities", i))
		}
	}
	return bad
}

// leaseJSON is the lease as the HTTP API returns it.
type leaseJSON struct {
	ID     int64   `json:"id"`
	Blue   []int   `json:"blue"`
	K      int     `json:"k"`
	Phi    float64 `json:"phi"`
	AllRed float64 `json:"all_red"`
}

// httpPhase drives one schedule against the stack over HTTP.
type httpPhase struct {
	st      *stack
	tenants []tenant
	sch     *schedule
	traced  bool
	// Per slot: the lease the admission returned and the one the
	// lookup returned.
	admitted, looked []leaseJSON
	// Per event: response bytes, and the first errors seen.
	respBytes []int32
	errs      []string
	errN      atomic.Int64
	// serve is the naas.serve span per event (traced phases only).
	serve []atomic.Int64
}

func newHTTPPhase(st *stack, tenants []tenant, sch *schedule, traced bool) *httpPhase {
	p := &httpPhase{
		st: st, tenants: tenants, sch: sch, traced: traced,
		admitted:  make([]leaseJSON, len(sch.pool)),
		looked:    make([]leaseJSON, len(sch.pool)),
		respBytes: make([]int32, len(sch.events)),
		errs:      make([]string, 8),
	}
	if traced {
		p.serve = make([]atomic.Int64, len(sch.events))
	}
	return p
}

var wantStatus = [...]int{opPost: http.StatusCreated, opGet: http.StatusOK, opDelete: http.StatusNoContent, opScrape: http.StatusOK}

func (p *httpPhase) fail(msg string) bool {
	if n := p.errN.Add(1); n <= int64(len(p.errs)) {
		p.errs[n-1] = msg
	}
	return false
}

// errors returns the first few failure messages of the phase.
func (p *httpPhase) errors() []string {
	n := min(int(p.errN.Load()), len(p.errs))
	return p.errs[:n]
}

func (p *httpPhase) run(callers int, abortLate time.Duration) *openRun {
	if p.traced {
		p.st.th.sink.Store(&p.serve)
		defer p.st.th.sink.Store(nil)
	}
	return runOpen(p.sch, callers, abortLate, p.exec)
}

func (p *httpPhase) exec(c clock, _, i int, ev event, sl *slot, r *rec) bool {
	var req *http.Request
	var err error
	switch ev.op {
	case opPost:
		body := p.tenants[p.sch.pool[ev.slot]].body
		req, err = http.NewRequest(http.MethodPost, p.st.base+"/v1/tenants", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case opGet:
		req, err = http.NewRequest(http.MethodGet, p.st.base+"/v1/tenants/"+strconv.FormatInt(sl.id, 10), nil)
	case opDelete:
		req, err = http.NewRequest(http.MethodDelete, p.st.base+"/v1/tenants/"+strconv.FormatInt(sl.id, 10), nil)
	case opScrape:
		req, err = http.NewRequest(http.MethodGet, p.st.base+"/metrics", nil)
	}
	if err != nil {
		return p.fail(err.Error())
	}
	if p.traced {
		req.Header.Set(spanHeader, strconv.Itoa(i))
	}
	r.send = c.now()
	resp, err := p.st.client.Do(req)
	if err != nil {
		r.done = c.now()
		return p.fail(fmt.Sprintf("%s: %v", ev.op, err))
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = c.now()
	if err != nil {
		return p.fail(fmt.Sprintf("%s: read body: %v", ev.op, err))
	}
	p.respBytes[i] = int32(len(b))
	if resp.StatusCode != wantStatus[ev.op] {
		return p.fail(fmt.Sprintf("%s: status %d: %s", ev.op, resp.StatusCode, bytes.TrimSpace(b)))
	}
	switch ev.op {
	case opPost:
		l := &p.admitted[ev.slot]
		if err := json.Unmarshal(b, l); err != nil {
			return p.fail("admit: decode lease: " + err.Error())
		}
		sl.id = l.ID
	case opGet:
		if err := json.Unmarshal(b, &p.looked[ev.slot]); err != nil {
			return p.fail("lookup: decode lease: " + err.Error())
		}
	}
	return true
}
