package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"time"

	"soar/internal/ha"
	"soar/internal/load"
	"soar/internal/topology"
)

// budget is every tenant's requested aggregation budget k.
const budget = 8

type opKind uint8

const (
	opPost opKind = iota
	opGet
	opDelete
	opScrape
)

func (o opKind) String() string {
	return [...]string{"admit", "lookup", "release", "scrape"}[o]
}

// event is one scheduled operation of an open-loop phase.
type event struct {
	// at is when the operation is due, from the phase start.
	at time.Duration
	op opKind
	// slot is the tenant's index within the phase (unused for scrapes).
	slot int32
	// drain marks a release due after the phase ends: it runs as soon
	// as the timed events are done and is checked but not timed.
	drain bool
}

// tenant is one generated admission request: the load it carries, in
// sparse form, and the exact request body the server receives.
type tenant struct {
	idx, val []int32
	body     []byte
	// shard is the owning pod of a pod-local tenant (sharded workload).
	shard int
}

// dense expands the tenant's load into buf (length n).
func (t *tenant) dense(buf []int) []int {
	clear(buf)
	for i, v := range t.idx {
		buf[v] = int(t.val[i])
	}
	return buf
}

func newTenant(l []int, shard int) tenant {
	t := tenant{shard: shard}
	for v, n := range l {
		if n > 0 {
			t.idx = append(t.idx, int32(v))
			t.val = append(t.val, int32(n))
		}
	}
	body, err := json.Marshal(struct {
		Load []int `json:"load"`
		K    int   `json:"k"`
	}{l, budget})
	if err != nil {
		panic(err) // a []int and an int always marshal
	}
	t.body = body
	return t
}

// genTenants draws n tenants of workload w on tree t.
func genTenants(w *workload, t *topology.Tree, part *ha.Partitioning, n int, rng *rand.Rand) []tenant {
	d := load.PaperPowerLaw()
	out := make([]tenant, n)
	for i := range out {
		switch w.kind {
		case kindSparse:
			out[i] = newTenant(load.GenerateSparse(t, d, sparseRacks, rng), 0)
		case kindDense:
			out[i] = newTenant(load.Generate(t, d, load.LeavesOnly, rng), 0)
		case kindPodLocal:
			s := rng.Intn(len(part.Shards))
			pod := part.Shards[s].Pod
			local := load.GenerateSparse(pod.Tree, d, sparseRacks, rng)
			global := make([]int, t.N())
			for lv, c := range local {
				if c > 0 {
					global[pod.Global[lv]] = c
				}
			}
			out[i] = newTenant(global, s)
		}
	}
	return out
}

// schedule is one open-loop phase: Poisson admissions at a fixed rate,
// each tenant looked up halfway through an exponentially distributed
// hold and released when it ends, plus a /metrics scrape every second.
type schedule struct {
	events []event
	// pool maps a phase slot to its tenant in the generated pool.
	pool []int32
	// span is the timed length; events due later are drain releases.
	span time.Duration
	// rate is the offered admission rate the arrivals realize: the
	// number of arrivals divided by span.
	rate float64
}

// scrapeEvery is the /metrics scrape period of every phase.
const scrapeEvery = time.Second

// poissonSchedule builds a phase deterministically from rng. Tenant
// slots draw from a pool of poolSize generated tenants, cycling from
// offset when the phase has more arrivals than the pool.
func poissonSchedule(rng *rand.Rand, rate float64, hold, span time.Duration, poolSize, offset int) schedule {
	s := schedule{span: span}
	t := 0.0
	for slot := int32(0); ; slot++ {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			break
		}
		h := time.Duration(rng.ExpFloat64() * float64(hold))
		s.pool = append(s.pool, int32((offset+int(slot))%poolSize))
		s.events = append(s.events, event{at: at, op: opPost, slot: slot})
		if mid := at + h/2; mid < span {
			s.events = append(s.events, event{at: mid, op: opGet, slot: slot})
		}
		end := at + h
		s.events = append(s.events, event{at: end, op: opDelete, slot: slot, drain: end >= span})
	}
	for at := scrapeEvery / 2; at < span; at += scrapeEvery {
		s.events = append(s.events, event{at: at, op: opScrape, slot: -1})
	}
	sort.Slice(s.events, func(i, j int) bool {
		a, b := s.events[i], s.events[j]
		if a.drain != b.drain {
			return !a.drain
		}
		if a.at != b.at {
			return a.at < b.at
		}
		if a.op != b.op {
			return a.op < b.op
		}
		return a.slot < b.slot
	})
	s.rate = float64(len(s.pool)) / span.Seconds()
	return s
}

// admits counts the phase's arrivals.
func (s *schedule) admits() int { return len(s.pool) }
