package main

import (
	"fmt"
	"math"
	"time"

	"soar/internal/core"
	"soar/internal/sched"
	"soar/internal/topology"
)

// reconcileTol is the stated tolerance of the layer reconciliation: the
// stage self medians must add up to the untraced admit p50 within this
// share of it, and no stage may read more negative than it.
const reconcileTol = 0.25

// The traced run measures the per-layer split on the first quarter of the
// workload's fixed-rate schedule (same seed, so the same tenants and
// arrival times), in four passes over one booted stack:
//
//  1. untraced HTTP: the reference admit p50;
//  2. traced HTTP: the client records e2e.admit (due → response) and
//     http.rtt (send → response), the server wrapper records
//     naas.serve (ServeHTTP), all keyed by one request id; the
//     stack's counters are read as deltas over this pass;
//  3. the same admissions and releases replayed at the same arrival
//     times, with the same caller count, into the public entry point of
//     the layer below naas: Scheduler.Place/Release, or for the cluster
//     Cluster.Place/Release and then ShardScheduler(s).Place/Release on
//     the localized load;
//  4. the admitted loads solved back to back on a warm core.Incremental
//     (SetLoads + SolveInto), the engine every scheduler worker owns.
//
// A layer's self time is its median minus the median of the layer
// below it, so the self medians add up to the traced e2e.admit median
// by construction; the reconciliation compares that sum with the
// untraced admit p50 and rejects a stage that reads negative, which
// would mean a replayed layer ran slower than the layer containing it.
func runTraced(rp *report, w *workload, in *inputs, callers int) error {
	client := newClient(callers)
	st, _, err := boot(w, client)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	defer st.close()
	chk := newChecker(in.tree, 0)
	count := func(run *openRun) {
		a, f, s := run.counts()
		rp.res.Attempted += a + s
		rp.res.Failed += f + s
	}
	var lags []float64
	inflight := 0
	httpPass := func(traced bool) (*httpPhase, *openRun) {
		p := newHTTPPhase(st, in.tenants, &in.fixed, traced)
		run := p.run(callers, 0)
		count(run)
		chk.checkPhase(p, run)
		lags = append(lags, run.genLag().p99())
		inflight = max(inflight, run.inflightMax)
		for _, e := range p.errors() {
			rp.printf("  error: %s", e)
		}
		return p, run
	}

	_, runA := httpPass(false)
	admitA := runA.latencies(opPost)
	c0 := st.counters()
	pB, runB := httpPass(true)
	c1 := st.counters()
	span := in.fixed.span.Seconds()

	var e2e, rtt, serve, scrape []time.Duration
	var reqBytes, respBytes []float64
	for i, ev := range in.fixed.events {
		r := runB.recs[i]
		if ev.drain || !r.ok {
			continue
		}
		switch ev.op {
		case opPost:
			e2e = append(e2e, r.done-ev.at)
			rtt = append(rtt, r.done-r.send)
			serve = append(serve, time.Duration(pB.serve[i].Load()))
			reqBytes = append(reqBytes, float64(len(in.tenants[in.fixed.pool[ev.slot]].body)))
			respBytes = append(respBytes, float64(pB.respBytes[i]))
		case opScrape:
			scrape = append(scrape, time.Duration(pB.serve[i].Load()))
		}
	}

	// Pass 3: the layers below naas.
	lr := &layerRun{st: st, in: in, callers: callers, chk: chk}
	var haPlace, schedPlace, schedRelease dist
	if st.cl != nil {
		run, place, _ := lr.replay(lr.clusterOps())
		count(run)
		inflight = max(inflight, run.inflightMax)
		haPlace = place
		run, schedPlace, schedRelease = lr.replay(lr.shardOps())
		count(run)
		inflight = max(inflight, run.inflightMax)
	} else {
		run, place, release := lr.replay(lr.schedOps())
		count(run)
		inflight = max(inflight, run.inflightMax)
		schedPlace, schedRelease = place, release
	}
	solve := lr.coreReplay(in.fixed.span)

	// Pass-level checks: the drained stack and every lease.
	for _, b := range st.audit() {
		chk.failf("%s", b)
	}
	for _, b := range chk.bad {
		rp.printf("  VIOLATION: %s", b)
	}
	if len(chk.bad) > 0 || rp.res.Failed > 0 {
		rp.res.Correct = false
	}

	e2eD, rttD, serveD := durDist(e2e), durDist(rtt), durDist(serve)
	below := schedPlace.p50()
	if st.cl != nil {
		below = haPlace.p50()
	}
	stages := []stage{
		{"bench wait (client queue, generator)", e2eD.p50() - rttD.p50()},
		{"http transport (rtt - naas.serve)", rttD.p50() - serveD.p50()},
		{"naas self (serve - layer below)", serveD.p50() - below},
	}
	haSelf := 0.0
	if st.cl != nil {
		haSelf = haPlace.p50() - schedPlace.p50()
		stages = append(stages, stage{"ha self (ha.place - shard sched.place)", haSelf})
	}
	stages = append(stages,
		stage{"sched self (sched.place - core.solve)", schedPlace.p50() - solve.p50()},
		stage{"core solve", solve.p50()})
	sum, bad := reconcile(stages, admitA.p50(), reconcileTol)

	rp.printf("traced run over %v of the fixed-rate schedule (%d admissions):", in.fixed.span, in.fixed.admits())
	rp.timing("admit, untraced", admitA)
	rp.timing("e2e.admit, traced", e2eD)
	rp.timing("http.rtt", rttD)
	rp.timing("naas.serve", serveD)
	if st.cl != nil {
		rp.timing("ha.place (Cluster.Place)", haPlace)
	}
	rp.timing("sched.place", schedPlace)
	rp.timing("sched.release", schedRelease)
	rp.timing("core.solve", solve)
	rp.timing("obs.scrape (serve)", durDist(scrape))
	rp.printf("stage table (self medians, ms):")
	for _, s := range stages {
		rp.printf("  %-40s %10.4f", s.name, s.ms)
	}
	rp.printf("  %-40s %10.4f  vs untraced admit p50 %.4f: error %.1f%% (tolerance %.0f%%)",
		"sum", sum, admitA.p50(), 100*math.Abs(sum-admitA.p50())/admitA.p50(), 100*reconcileTol)
	for _, b := range bad {
		rp.invalidf("layer reconciliation: %s", b)
	}
	if lp := newDist(lags).rank(1, 1); lp > float64(lagLimit)/float64(time.Millisecond) {
		rp.invalidf("generator p99 lateness %.3f ms exceeds %v", lp, lagLimit)
	}
	if inflight > callers {
		rp.invalidf("%d calls in flight with %d callers", inflight, callers)
	}

	d := func(name string) float64 { return c1[name] - c0[name] }
	admits := math.Max(d("soar_sched_admissions_total"), 1)
	ops := math.Max(d("soar_sched_admissions_total")+d("soar_sched_releases_total"), 1)
	memo := 0.0
	if h, m := d("soar_memo_hits_total"), d("soar_memo_misses_total"); h+m > 0 {
		memo = h / (h + m)
	}
	failovers := 0.0
	if st.cl != nil {
		failovers = float64(st.cl.Metrics().Failovers())
	}
	ms := "ms"
	rp.metric("http.rtt_p50_ms", rttD.p50(), ms)
	rp.metric("http.transport_p50_ms", rttD.p50()-serveD.p50(), ms)
	rp.metric("naas.serve_p50_ms", serveD.p50(), ms)
	rp.metric("naas.serve_p99_ms", serveD.p99(), ms)
	rp.metric("naas.self_p50_ms", serveD.p50()-below, ms)
	rp.metric("naas.req_bytes", mean(reqBytes), "bytes")
	rp.metric("naas.resp_bytes", mean(respBytes), "bytes")
	rp.metric("sched.place_p50_ms", schedPlace.p50(), ms)
	rp.metric("sched.place_p99_ms", schedPlace.p99(), ms)
	rp.metric("sched.release_p50_ms", schedRelease.p50(), ms)
	rp.metric("sched.self_p50_ms", schedPlace.p50()-solve.p50(), ms)
	rp.metric("sched.batch_mean", d("soar_sched_batch_size_sum")/math.Max(d("soar_sched_batch_size_count"), 1), "count")
	rp.metric("sched.conflicts_per_admit", d("soar_sched_conflicts_total")/admits, "1")
	rp.metric("sched.repack_moves_per_s", d("soar_sched_repack_moves_total")/span, "1/s")
	rp.metric("core.solve_p50_ms", solve.p50(), ms)
	rp.metric("core.solve_p99_ms", solve.p99(), ms)
	rp.metric("core.memo_hit_ratio", memo, "1")
	rp.metric("ha.place_p50_ms", zeroNaN(haPlace.p50()), ms)
	rp.metric("ha.self_p50_ms", haSelf, ms)
	rp.metric("ha.deltas_per_op", d("soar_ha_deltas_total")/ops, "1")
	rp.metric("ha.failovers", failovers, "count")
	rp.metric("obs.scrape_p50_ms", zeroNaN(durDist(scrape).p50()), ms)
	rp.metric("bench.gen_lag_p99_ms", newDist(lags).rank(1, 1), ms)
	rp.metric("bench.inflight_max", float64(inflight), "count")
	rp.metric("bench.trace_overhead_p50_ms", e2eD.p50()-admitA.p50(), ms)
	rp.metric("bench.reconcile_err_frac", math.Abs(sum-admitA.p50())/admitA.p50(), "1")
	rp.printf("per-layer metrics:")
	for _, name := range layerOrder {
		m := rp.res.Metrics[name]
		rp.printf("  %-28s %12.6f %s", name, m.Value, m.Unit)
	}
	return nil
}

var layerOrder = []string{
	"http.rtt_p50_ms", "http.transport_p50_ms",
	"naas.serve_p50_ms", "naas.serve_p99_ms", "naas.self_p50_ms", "naas.req_bytes", "naas.resp_bytes",
	"sched.place_p50_ms", "sched.place_p99_ms", "sched.release_p50_ms", "sched.self_p50_ms",
	"sched.batch_mean", "sched.conflicts_per_admit", "sched.repack_moves_per_s",
	"core.solve_p50_ms", "core.solve_p99_ms", "core.memo_hit_ratio",
	"ha.place_p50_ms", "ha.self_p50_ms", "ha.deltas_per_op", "ha.failovers",
	"obs.scrape_p50_ms",
	"bench.gen_lag_p99_ms", "bench.inflight_max", "bench.trace_overhead_p50_ms", "bench.reconcile_err_frac",
}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// stage is one row of the stage table: a layer's self median in ms.
type stage struct {
	name string
	ms   float64
}

// reconcile adds the stage self medians and checks them against the
// end-to-end median: the sum must lie within tol·e2e of it, and no
// stage may be below −tol·e2e.
func reconcile(stages []stage, e2e, tol float64) (sum float64, bad []string) {
	for _, s := range stages {
		sum += s.ms
		if s.ms < -tol*e2e {
			bad = append(bad, fmt.Sprintf("stage %q reads %.4f ms, below -%.0f%% of %.4f ms", s.name, s.ms, 100*tol, e2e))
		}
	}
	if math.Abs(sum-e2e) > tol*e2e {
		bad = append(bad, fmt.Sprintf("stages add up to %.4f ms, not %.4f ms within %.0f%%", sum, e2e, 100*tol))
	}
	return sum, bad
}

// layerRun replays a phase's admissions and releases into the layers
// below the HTTP front.
type layerRun struct {
	st      *stack
	in      *inputs
	callers int
	chk     *checker
}

// layerOps is one replay target: place admits slot's tenant through
// caller w's scratch and returns the lease id; release frees it.
type layerOps struct {
	prep    func(w int, ten *tenant) []int
	place   func(ten *tenant, load []int) (*sched.Lease, error)
	release func(ten *tenant, id int64) error
	// check validates a returned lease against its tenant.
	check func(l *sched.Lease, ten *tenant)
}

func (lr *layerRun) scratch(n int) [][]int {
	out := make([][]int, lr.callers)
	for i := range out {
		out[i] = make([]int, n)
	}
	return out
}

func (lr *layerRun) globalCheck() func(l *sched.Lease, ten *tenant) {
	mask := make([]bool, lr.in.tree.N())
	load := make([]int, lr.in.tree.N())
	return func(l *sched.Lease, ten *tenant) {
		lj := leaseJSON{ID: l.ID, Blue: l.Blue, K: l.K, Phi: l.Phi, AllRed: l.AllRed}
		if err := leaseError(lr.in.tree, &lj, ten.dense(load), mask); err != nil {
			lr.chk.failf("replayed lease %d: %v", l.ID, err)
		}
	}
}

func (lr *layerRun) schedOps() layerOps {
	s := lr.st.svc.Scheduler()
	bufs := lr.scratch(lr.in.tree.N())
	return layerOps{
		prep:    func(w int, ten *tenant) []int { return ten.dense(bufs[w]) },
		place:   func(_ *tenant, load []int) (*sched.Lease, error) { return s.Place(load, budget) },
		release: func(_ *tenant, id int64) error { return s.Release(id) },
		check:   lr.globalCheck(),
	}
}

func (lr *layerRun) clusterOps() layerOps {
	cl := lr.st.cl
	bufs := lr.scratch(lr.in.tree.N())
	return layerOps{
		prep:    func(w int, ten *tenant) []int { return ten.dense(bufs[w]) },
		place:   func(_ *tenant, load []int) (*sched.Lease, error) { return cl.Place(load, budget) },
		release: func(_ *tenant, id int64) error { return cl.Release(id) },
		check:   lr.globalCheck(),
	}
}

func (lr *layerRun) shardOps() layerOps {
	cl := lr.st.cl
	part := cl.Partitioning()
	bufs := lr.scratch(lr.in.tree.N())
	return layerOps{
		prep: func(w int, ten *tenant) []int { return part.Localize(ten.shard, ten.dense(bufs[w])) },
		place: func(ten *tenant, load []int) (*sched.Lease, error) {
			return cl.ShardScheduler(ten.shard).Place(load, budget)
		},
		release: func(ten *tenant, id int64) error { return cl.ShardScheduler(ten.shard).Release(id) },
		check: func(l *sched.Lease, ten *tenant) {
			pt := part.Shards[ten.shard].Pod.Tree
			lj := leaseJSON{ID: l.ID, Blue: l.Blue, K: l.K, Phi: l.Phi, AllRed: l.AllRed}
			if err := leaseError(pt, &lj, l.Load, make([]bool, pt.N())); err != nil {
				lr.chk.failf("replayed shard-%d lease %d: %v", ten.shard, l.ID, err)
			}
		},
	}
}

// replay runs the phase's admissions and releases (no lookups, no
// scrapes) open loop at their original due times through ops, and
// returns the place and release call durations.
func (lr *layerRun) replay(ops layerOps) (*openRun, dist, dist) {
	src := &lr.in.fixed
	sch := &schedule{pool: src.pool, span: src.span, rate: src.rate}
	for _, ev := range src.events {
		if ev.op == opPost || ev.op == opDelete {
			sch.events = append(sch.events, ev)
		}
	}
	leases := make([]*sched.Lease, len(sch.pool))
	run := runOpen(sch, lr.callers, 0, func(c clock, w, _ int, ev event, sl *slot, r *rec) bool {
		ten := &lr.in.tenants[sch.pool[ev.slot]]
		switch ev.op {
		case opPost:
			load := ops.prep(w, ten)
			r.send = c.now()
			l, err := ops.place(ten, load)
			r.done = c.now()
			if err != nil {
				lr.chk.failf("replayed admission: %v", err)
				return false
			}
			sl.id = l.ID
			leases[ev.slot] = l
		case opDelete:
			r.send = c.now()
			err := ops.release(ten, sl.id)
			r.done = c.now()
			if err != nil {
				lr.chk.failf("replayed release of %d: %v", sl.id, err)
				return false
			}
		}
		return true
	})
	for slot, l := range leases {
		if l != nil {
			ops.check(l, &lr.in.tenants[sch.pool[slot]])
		}
	}
	return run, durDist(run.rtts(opPost)), durDist(run.rtts(opDelete))
}

// coreReplay solves the phase's tenants back to back on warm
// incremental engines (one per shard for the cluster, whose pods solve
// on their own trees with the spine unavailable), for at most limit.
func (lr *layerRun) coreReplay(limit time.Duration) dist {
	tree := lr.in.tree
	engine := func(t *topology.Tree, avail []bool) *core.Incremental {
		return core.NewIncremental(t, make([]int, t.N()), avail, budget)
	}
	var engines []*core.Incremental
	var part func(ten *tenant, load []int) (int, []int)
	if lr.st.cl == nil {
		engines = []*core.Incremental{engine(tree, nil)}
		part = func(_ *tenant, load []int) (int, []int) { return 0, load }
	} else {
		p := lr.st.cl.Partitioning()
		for _, sh := range p.Shards {
			avail := make([]bool, sh.Pod.Tree.N())
			for v := sh.Pod.Spine; v < len(avail); v++ {
				avail[v] = true
			}
			engines = append(engines, engine(sh.Pod.Tree, avail))
		}
		part = func(ten *tenant, load []int) (int, []int) { return ten.shard, p.Localize(ten.shard, load) }
	}
	blue := make([]bool, tree.N())
	buf := make([]int, tree.N())
	const warm = 8
	var ds []time.Duration
	deadline := time.Now().Add(limit)
	for i, slot := range lr.in.fixed.pool {
		ten := &lr.in.tenants[slot]
		s, load := part(ten, ten.dense(buf))
		eng := engines[s]
		t0 := time.Now()
		eng.SetLoads(load)
		eng.SolveInto(blue[:len(load)])
		d := time.Since(t0)
		if i >= warm {
			ds = append(ds, d)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return durDist(ds)
}
