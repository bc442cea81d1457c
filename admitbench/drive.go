package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// rec is the outcome of one scheduled event. Times are offsets from the
// phase start on the monotonic clock.
type rec struct {
	// send and done bracket the call into the layer under test; the
	// executor sets both.
	send, done time.Duration
	// lag is the generator's own lateness: how long after the event
	// was both due and sendable (dependencies met, a caller free) the
	// call actually started.
	lag     time.Duration
	ok      bool
	skipped bool
}

// slot is the run-time state of one tenant of a phase. The channels
// order a tenant's operations: a lookup waits for its admission, a
// release for its lookup, whichever caller holds them.
type slot struct {
	id       int64
	admitted bool
	posted   chan struct{}
	looked   chan struct{}
}

// clock is a phase's start; now reads the offset on the monotonic clock.
type clock time.Time

func (c clock) now() time.Duration { return time.Since(time.Time(c)) }

// execFn performs event i on behalf of caller w, filling r.send,
// r.done (on clock c) and, for admissions, sl.id, and reports success.
type execFn func(c clock, w, i int, ev event, sl *slot, r *rec) bool

// openRun is one executed open-loop phase.
type openRun struct {
	sch   *schedule
	recs  []rec
	slots []slot
	// inflightMax is the most calls in progress at once; it never
	// exceeds the caller count.
	inflightMax int
	// aborted is set when an event was picked more than the abort
	// threshold after it was due; later timed events were skipped.
	aborted bool
	// wall is the phase's length, start to last completion.
	wall time.Duration
}

// runOpen executes sch with `callers` goroutines that take events in
// due order from a shared cursor, sleep until each is due and call exec.
// A late event is sent at once: its latency still counts from its due
// time, so a stall is charged to every request queued behind it. With
// abortLate > 0, an event picked more than abortLate after it was due
// stops the timed part of the phase (remaining admissions and lookups
// are skipped; releases still run so the phase leaves nothing behind).
func runOpen(sch *schedule, callers int, abortLate time.Duration, exec execFn) *openRun {
	run := &openRun{sch: sch, recs: make([]rec, len(sch.events)), slots: make([]slot, len(sch.pool))}
	hasGet := make([]bool, len(sch.pool))
	for _, ev := range sch.events {
		if ev.op == opGet {
			hasGet[ev.slot] = true
		}
	}
	for i := range run.slots {
		run.slots[i].posted = make(chan struct{})
		run.slots[i].looked = make(chan struct{})
		if !hasGet[i] {
			close(run.slots[i].looked)
		}
	}
	var next, inflight, inflightMax atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sch.events) {
					return
				}
				ev := sch.events[i]
				r := &run.recs[i]
				var sl *slot
				if ev.op != opScrape {
					sl = &run.slots[ev.slot]
				}
				ready := time.Since(start)
				switch ev.op {
				case opGet:
					<-sl.posted
				case opDelete:
					<-sl.posted
					<-sl.looked
				}
				if ev.op == opGet || ev.op == opDelete {
					ready = time.Since(start)
				}
				skip := (sl != nil && ev.op != opPost && !sl.admitted) ||
					(aborted.Load() && ev.op != opDelete && !ev.drain)
				if !skip && !ev.drain && !aborted.Load() {
					if wait := ev.at - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
					ready = max(ready, ev.at)
					if abortLate > 0 && ready-ev.at > abortLate {
						aborted.Store(true)
					}
				}
				if skip {
					r.skipped = true
				} else {
					n := inflight.Add(1)
					for m := inflightMax.Load(); n > m && !inflightMax.CompareAndSwap(m, n); m = inflightMax.Load() {
					}
					lagFrom := time.Since(start)
					r.ok = exec(clock(start), w, i, ev, sl, r)
					inflight.Add(-1)
					r.lag = lagFrom - ready
					if r.send == 0 {
						r.send = lagFrom
					}
					if r.done == 0 {
						r.done = time.Since(start)
					}
				}
				switch ev.op {
				case opPost:
					if r.ok {
						sl.admitted = true
					}
					close(sl.posted)
				case opGet:
					close(sl.looked)
				}
			}
		}(w)
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.inflightMax = int(inflightMax.Load())
	run.aborted = aborted.Load()
	return run
}

// latencies returns the due-to-done latencies of the timed, completed
// events of one kind (successful or not: a failed call still took its
// time, and is counted separately as an error).
func (run *openRun) latencies(op opKind) dist {
	var ds []time.Duration
	for i, ev := range run.sch.events {
		r := run.recs[i]
		if ev.op == op && !ev.drain && !r.skipped {
			ds = append(ds, r.done-ev.at)
		}
	}
	return durDist(ds)
}

// rtts returns the send-to-done durations of the timed, completed
// events of one kind: the time spent inside the layer under test.
func (run *openRun) rtts(op opKind) []time.Duration {
	var ds []time.Duration
	for i, ev := range run.sch.events {
		r := run.recs[i]
		if ev.op == op && !ev.drain && !r.skipped {
			ds = append(ds, r.done-r.send)
		}
	}
	return ds
}

// counts returns the events sent, those of them that failed, and those
// never sent: skipped because their tenant's admission failed or the
// phase was aborted.
func (run *openRun) counts() (attempted, failed, skipped int) {
	for _, r := range run.recs {
		switch {
		case r.skipped:
			skipped++
		case !r.ok:
			attempted++
			failed++
		default:
			attempted++
		}
	}
	return attempted, failed, skipped
}

// genLag returns the generator's lateness over the timed events.
func (run *openRun) genLag() dist {
	var ds []time.Duration
	for i, ev := range run.sch.events {
		if r := run.recs[i]; !ev.drain && !r.skipped {
			ds = append(ds, r.lag)
		}
	}
	return durDist(ds)
}

// backlogQuarters returns the mean backlog — operations due but not yet
// completed — over each quarter of the timed span, sampled every
// millisecond.
func (run *openRun) backlogQuarters() [4]float64 {
	const step = time.Millisecond
	nb := int(run.sch.span/step) + 1
	delta := make([]int, nb+1)
	bucket := func(d time.Duration) int { return min(max(int(d/step), 0), nb) }
	for i, ev := range run.sch.events {
		r := run.recs[i]
		if ev.drain || r.skipped {
			continue
		}
		delta[bucket(ev.at)]++
		delta[bucket(r.done)]--
	}
	var q [4]float64
	var cnt [4]int
	cur := 0
	for b := 0; b < nb; b++ {
		cur += delta[b]
		k := min(4*b/nb, 3)
		q[k] += float64(cur)
		cnt[k]++
	}
	for k := range q {
		if cnt[k] > 0 {
			q[k] /= float64(cnt[k])
		}
	}
	return q
}

// backlogGrows reports whether the backlog trends upward across the
// phase: the last quarter's mean exceeds 1.5× the second quarter's
// plus a slack of two operations per caller. A saturated open loop
// grows linearly, which puts the ratio near 2.3; a stable one stays
// near 1. The first quarter is left out as the ramp-up.
func backlogGrows(q [4]float64, callers int) bool {
	return q[3] > 1.5*q[1]+2*float64(callers)
}

// windows splits the timed latencies of one kind, in due order, into
// `parts` consecutive groups of equal count.
func (run *openRun) windows(op opKind, parts int) []dist {
	var ds []time.Duration
	for i, ev := range run.sch.events {
		r := run.recs[i]
		if ev.op == op && !ev.drain && !r.skipped {
			ds = append(ds, r.done-ev.at)
		}
	}
	out := make([]dist, parts)
	for j := range out {
		out[j] = durDist(ds[j*len(ds)/parts : (j+1)*len(ds)/parts])
	}
	return out
}
