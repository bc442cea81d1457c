package main

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/reduce"
	"soar/internal/topology"
)

func seq(n int) dist {
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = float64(n - i) // unsorted on purpose
	}
	return newDist(ms)
}

func TestPercentileNearestRank(t *testing.T) {
	d := seq(1000)
	if got := d.p50(); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := d.p99(); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := seq(1).p99(); got != 1 {
		t.Errorf("p99 of one sample = %v, want 1", got)
	}
	if got := (dist{}).p50(); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %v, want NaN", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		label string
	}{
		{99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}, {100000, "p99.99"},
	}
	for _, c := range cases {
		d := seq(c.n)
		label, v, ok := d.tail()
		if ok != (c.label != "") || label != c.label {
			t.Errorf("n=%d: tail %q ok=%v, want %q", c.n, label, ok, c.label)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range d.v {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %s=%v leaves %d samples beyond, want ≥ 10", c.n, label, v, beyond)
		}
		if !strings.Contains(d.String(), label) || !strings.Contains(d.String(), "n=") {
			t.Errorf("n=%d: String() = %q lacks the tail or n", c.n, d.String())
		}
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	mk := func(seed int64) schedule {
		return poissonSchedule(rand.New(rand.NewSource(seed)), 300, 100*time.Millisecond, 5*time.Second, 1000, 0)
	}
	a, b := mk(7), mk(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a.events, mk(8).events) {
		t.Fatal("different seeds gave the same schedule")
	}
	if a.rate < 250 || a.rate > 350 {
		t.Errorf("realized rate %.1f/s for 300/s offered", a.rate)
	}
	// Events are in due order, timed ones before drain releases, and
	// each tenant's lookup falls between its admission and release.
	posted := map[int32]time.Duration{}
	drain := false
	for i, ev := range a.events {
		if ev.drain {
			drain = true
		} else if drain {
			t.Fatalf("event %d: timed event after a drain release", i)
		}
		if i > 0 && !ev.drain && ev.at < a.events[i-1].at {
			t.Fatalf("event %d out of order", i)
		}
		switch ev.op {
		case opPost:
			posted[ev.slot] = ev.at
		case opGet, opDelete:
			at, ok := posted[ev.slot]
			if !ok || ev.at < at {
				t.Fatalf("event %d: %v of slot %d before its admission", i, ev.op, ev.slot)
			}
		}
		if ev.drain != (ev.at >= a.span) || (ev.drain && ev.op != opDelete) {
			t.Fatalf("event %d: drain=%v at %v (span %v, op %v)", i, ev.drain, ev.at, a.span, ev.op)
		}
	}
	// A shorter span of the same seed is a prefix of the longer one:
	// the traced run relies on it.
	short := poissonSchedule(rand.New(rand.NewSource(7)), 300, 100*time.Millisecond, 2*time.Second, 1000, 0)
	if !reflect.DeepEqual(short.pool, a.pool[:len(short.pool)]) {
		t.Fatal("a shorter span is not a prefix of the same seed's arrivals")
	}
}

// validLease solves a real instance with the reference solver and
// returns it as the API would, with its load.
func validLease(t *testing.T) (*topology.Tree, leaseJSON, []int) {
	t.Helper()
	tr := topology.MustBT(256)
	l := load.GenerateSparse(tr, load.PaperPowerLaw(), sparseRacks, rand.New(rand.NewSource(3)))
	res := core.Solve(tr, l, nil, budget)
	lj := leaseJSON{ID: 42, K: budget, Phi: res.Cost, AllRed: reduce.Utilization(tr, l, make([]bool, tr.N()))}
	for v, b := range res.Blue {
		if b {
			lj.Blue = append(lj.Blue, v)
		}
	}
	if len(lj.Blue) == 0 {
		t.Fatal("reference solve placed no blue switch")
	}
	return tr, lj, l
}

func TestValidatorRejectsTamperedLeases(t *testing.T) {
	tr, good, l := validLease(t)
	mask := make([]bool, tr.N())
	if err := leaseError(tr, &good, l, mask); err != nil {
		t.Fatalf("valid lease rejected: %v", err)
	}
	tamper := map[string]func(*leaseJSON){
		"wrong phi":         func(x *leaseJSON) { x.Phi = math.Nextafter(x.Phi, math.Inf(1)) },
		"wrong all_red":     func(x *leaseJSON) { x.AllRed++ },
		"too many blue":     func(x *leaseJSON) { x.Blue = append(x.Blue, 0, 1, 2, 3, 4, 5, 6, 7, 8) },
		"duplicate blue":    func(x *leaseJSON) { x.Blue = append(x.Blue[:0:0], x.Blue[0], x.Blue[0]) },
		"blue out of range": func(x *leaseJSON) { x.Blue = []int{tr.N()} },
		"wrong k":           func(x *leaseJSON) { x.K = budget + 1 },
	}
	for name, f := range tamper {
		bad := good
		bad.Blue = append([]int(nil), good.Blue...)
		f(&bad)
		if err := leaseError(tr, &bad, l, mask); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A checker flags a duplicate id and a Phi below the optimum.
	ten := newTenant(l, 0)
	c := newChecker(tr, 1)
	c.admission(&good, &ten)
	if len(c.bad) != 0 {
		t.Fatalf("valid admission flagged: %v", c.bad)
	}
	c.admission(&good, &ten)
	if len(c.bad) != 1 || !strings.Contains(c.bad[0], "duplicate") {
		t.Errorf("duplicate id not flagged: %v", c.bad)
	}
}

func TestReconcileArithmetic(t *testing.T) {
	stages := []stage{{"a", 0.5}, {"b", 0.25}, {"c", 1.25}}
	sum, bad := reconcile(stages, 2.0, 0.1)
	if sum != 2.0 || len(bad) != 0 {
		t.Errorf("exact split: sum %v, bad %v", sum, bad)
	}
	if _, bad := reconcile(stages, 2.3, 0.1); len(bad) != 1 {
		t.Errorf("sum 2.0 vs e2e 2.3 at 10%%: %v, want one finding", bad)
	}
	if _, bad := reconcile(stages, 2.15, 0.1); len(bad) != 0 {
		t.Errorf("sum 2.0 vs e2e 2.15 at 10%%: %v, want none", bad)
	}
	neg := []stage{{"a", 2.5}, {"b", -0.5}}
	if _, bad := reconcile(neg, 2.0, 0.1); len(bad) != 1 || !strings.Contains(bad[0], `"b"`) {
		t.Errorf("negative stage: %v, want it flagged", bad)
	}
}

func TestFitSLO(t *testing.T) {
	// p99 doubles every 100/s: 10 ms at 100/s crosses 80 ms at 400/s.
	rates := []float64{100, 200, 300, 500}
	p99s := []float64{10, 20, 40, 160}
	if got, n := fitSLO(rates, p99s, 80); n != 3 || math.Abs(got-400) > 1e-6 {
		t.Errorf("got %v over %d probes, want 400 over 3 (10 ms is too far below 80 ms)", got, n)
	}
	// The estimate never leaves the probed range.
	if got, _ := fitSLO([]float64{100, 200}, []float64{30, 40}, 50); got != 200 {
		t.Errorf("extrapolated to %v, want the clamp at 200", got)
	}
	if _, n := fitSLO([]float64{100}, []float64{50}, 50); n >= 2 {
		t.Error("fitted a single probe")
	}
}

func TestSLOSearchStaysInBracket(t *testing.T) {
	// A stall makes the 100/s probe read 40 ms, so a fit over the probes
	// near the limit falls with rate; the estimate must still lie between
	// the highest passing and the lowest failing probe.
	p99At := func(rate float64) float64 {
		switch {
		case rate < 150:
			return 40
		case rate < 320:
			return 30
		}
		return 120
	}
	try := func(_ int, rate float64) probe {
		p := probe{nominal: rate, rate: rate, p99: p99At(rate)}
		p.pass = p.p99 <= 100
		return p
	}
	rp := &report{res: result{Metrics: map[string]metric{}}}
	got := sloSearch(rp, try(0, 50), try)
	if got < 300 || got > 330 {
		t.Errorf("slo rate %v, want inside the 300..330/s bracket", got)
	}
}

func TestBacklogGrowth(t *testing.T) {
	if backlogGrows([4]float64{1, 1.2, 1.1, 1.3}, 2) {
		t.Error("flat backlog reported as growing")
	}
	if !backlogGrows([4]float64{10, 40, 70, 100}, 2) {
		t.Error("linear backlog growth missed")
	}
}

// TestRunOpenOrdersEachTenant drives a schedule through runOpen with a
// fake layer: every event runs once, a tenant's lookup and release
// start only after the operation before them ended, and no more calls
// are in flight than callers.
func TestRunOpenOrdersEachTenant(t *testing.T) {
	sch := poissonSchedule(rand.New(rand.NewSource(5)), 400, 20*time.Millisecond, 300*time.Millisecond, 1<<20, 0)
	const callers = 4
	ends := make([][3]time.Duration, len(sch.pool)) // admission, lookup, release ends
	run := runOpen(&sch, callers, 0, func(c clock, _, _ int, ev event, sl *slot, r *rec) bool {
		r.send = c.now()
		time.Sleep(time.Millisecond)
		r.done = c.now()
		switch ev.op {
		case opPost:
			sl.id = int64(ev.slot) + 1
			ends[ev.slot][0] = r.done
		case opGet:
			if sl.id != int64(ev.slot)+1 || r.send < ends[ev.slot][0] {
				t.Errorf("slot %d: lookup before its admission ended", ev.slot)
			}
			ends[ev.slot][1] = r.done
		case opDelete:
			if r.send < ends[ev.slot][0] || r.send < ends[ev.slot][1] {
				t.Errorf("slot %d: release before its lookup ended", ev.slot)
			}
		}
		return true
	})
	attempted, failed, skipped := run.counts()
	if attempted != len(sch.events) || failed != 0 || skipped != 0 {
		t.Errorf("attempted %d failed %d skipped %d of %d events", attempted, failed, skipped, len(sch.events))
	}
	if run.inflightMax < 1 || run.inflightMax > callers {
		t.Errorf("%d calls in flight with %d callers", run.inflightMax, callers)
	}
	for i, ev := range sch.events {
		if r := run.recs[i]; !ev.drain && r.done < ev.at {
			t.Fatalf("event %d done at %v before it was due at %v", i, r.done, ev.at)
		}
	}
}
