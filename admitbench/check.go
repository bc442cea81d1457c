package main

import (
	"fmt"

	"soar/internal/core"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// checker validates every lease the service returns against the
// tenant's own load, recomputing utilization from first principles.
type checker struct {
	t *topology.Tree
	// seen holds every admitted lease id of the stack's life: ids are
	// never reused, across phases too.
	seen map[int64]bool
	// optEvery samples the optimality check: every optEvery-th admitted
	// lease is compared with the reference solver's full-availability
	// optimum.
	optEvery, admitted int
	optChecked         int
	load               []int
	blue               []bool
	bad                []string
}

func newChecker(t *topology.Tree, optEvery int) *checker {
	return &checker{
		t: t, seen: map[int64]bool{}, optEvery: optEvery,
		load: make([]int, t.N()), blue: make([]bool, t.N()),
	}
}

func (c *checker) failf(format string, args ...any) {
	if len(c.bad) < 16 {
		c.bad = append(c.bad, fmt.Sprintf(format, args...))
	}
}

// admission checks the lease a 201 reply carried for tenant ten.
func (c *checker) admission(l *leaseJSON, ten *tenant) {
	if c.seen[l.ID] {
		c.failf("lease %d: duplicate id", l.ID)
	}
	c.seen[l.ID] = true
	load := ten.dense(c.load)
	if err := leaseError(c.t, l, load, c.blue); err != nil {
		c.failf("admitted lease %d: %v", l.ID, err)
		return
	}
	c.admitted++
	if c.optEvery > 0 && c.admitted%c.optEvery == 1 {
		c.optChecked++
		opt := core.Solve(c.t, load, nil, budget).Cost
		if l.Phi < opt {
			c.failf("lease %d: phi %v below the full-availability optimum %v", l.ID, l.Phi, opt)
		}
	}
}

// lookup checks the lease a 200 lookup returned for tenant ten, whose
// admission returned id. The re-packer may have moved the lease since,
// so its switches are checked afresh.
func (c *checker) lookup(l *leaseJSON, id int64, ten *tenant) {
	if l.ID != id {
		c.failf("lookup of lease %d returned lease %d", id, l.ID)
		return
	}
	if err := leaseError(c.t, l, ten.dense(c.load), c.blue); err != nil {
		c.failf("looked-up lease %d: %v", l.ID, err)
	}
}

// leaseError checks one lease against its tenant's load: the budget is
// echoed and respected, the blue switches are distinct and in range,
// and Phi and AllRed are bitwise equal to reduce.Utilization with and
// without the blue switches. mask is scratch of length t.N().
func leaseError(t *topology.Tree, l *leaseJSON, load []int, mask []bool) error {
	if l.K != budget {
		return fmt.Errorf("k %d, requested %d", l.K, budget)
	}
	if len(l.Blue) > budget {
		return fmt.Errorf("%d blue switches for budget %d", len(l.Blue), budget)
	}
	clear(mask)
	for _, v := range l.Blue {
		if v < 0 || v >= t.N() {
			return fmt.Errorf("blue switch %d out of range [0,%d)", v, t.N())
		}
		if mask[v] {
			return fmt.Errorf("blue switch %d listed twice", v)
		}
		mask[v] = true
	}
	if phi := reduce.Utilization(t, load, mask); phi != l.Phi {
		return fmt.Errorf("phi %v, recomputed %v", l.Phi, phi)
	}
	clear(mask)
	if red := reduce.Utilization(t, load, mask); red != l.AllRed {
		return fmt.Errorf("all_red %v, recomputed %v", l.AllRed, red)
	}
	return nil
}

// checkPhase validates every admission and lookup of an HTTP phase.
func (c *checker) checkPhase(p *httpPhase, run *openRun) {
	for i, ev := range p.sch.events {
		if !run.recs[i].ok || ev.op == opScrape {
			continue
		}
		ten := &p.tenants[p.sch.pool[ev.slot]]
		switch ev.op {
		case opPost:
			c.admission(&p.admitted[ev.slot], ten)
		case opGet:
			c.lookup(&p.looked[ev.slot], run.slots[ev.slot].id, ten)
		}
	}
}
