package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"
)

// Set-up and search constants of the end-to-end run.
const (
	// optEvery samples the optimality check (see checker).
	optEvery = 64
	// rampFactor and the probe counts shape the slo_rate_per_s search:
	// geometric steps from the fixed rate until the objective is
	// bracketed, then geometric bisection.
	rampFactor  = 2.0
	maxRamp     = 8
	bisectSteps = 4
)

// abortLate ends an overloaded search probe once an event is picked
// this late. Every event due in the abortLate−sloLimit before it is
// picked later still, so more than 2% of the probe's admissions miss
// the limit: the probe has failed, and running it out would only cost
// time.
func abortLate(w *workload) time.Duration { return sloLimit + probeSpan(w)/50 }

// probeSpan is the length of one search probe: long enough for a
// steady tenant population (a few mean holds) and a p99 sample.
func probeSpan(w *workload) time.Duration { return 2*time.Second + w.hold }

// runEndToEnd measures the end-to-end metrics: set-up time over
// setupBoots boots, the fixed-rate phase, and the slo_rate_per_s search
// on the last boot; then audits the drained stack.
func runEndToEnd(rp *report, w *workload, in *inputs, callers int) error {
	client := newClient(callers)
	var setups []float64
	var st *stack
	for b := 0; b < setupBoots; b++ {
		// Each boot starts from a collected heap, so garbage left by input
		// generation or the previous boot is not charged to set-up.
		runtime.GC()
		s, d, err := boot(w, client)
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		setups = append(setups, d.Seconds())
		if b < setupBoots-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	chk := newChecker(in.tree, optEvery)
	setup := median(setups)
	rp.printf("setup: median %.4f s over %d boots %v", setup, len(setups), roundAll(setups))

	// Fixed-rate phase.
	runtime.GC()
	cpu0 := cpuTime()
	p := newHTTPPhase(st, in.tenants, &in.fixed, false)
	run := p.run(callers, 0)
	cpu := cpuTime() - cpu0
	attempted, failed, skipped := run.counts()
	rp.res.Attempted += attempted + skipped
	rp.res.Failed += failed + skipped
	chk.checkPhase(p, run)
	admit := run.latencies(opPost)
	release := run.latencies(opDelete)
	lookup := run.latencies(opGet)
	lag := run.genLag()
	q := run.backlogQuarters()
	rp.printf("fixed-rate phase: offered %.1f/s for %v (wall %v), %d ops, %d failed, %d skipped",
		in.fixed.rate, in.fixed.span, run.wall.Round(time.Millisecond), attempted, failed, skipped)
	rp.timing("admit (due to response)", admit)
	rp.timing("release", release)
	rp.timing("lookup", lookup)
	rp.timing("scrape", run.latencies(opScrape))
	rp.timing("generator lateness", lag)
	rp.printf("  backlog by quarter          %.2f %.2f %.2f %.2f (ops due, not done)", q[0], q[1], q[2], q[3])
	rp.printf("  callers in flight, max      %d of %d", run.inflightMax, callers)
	for _, e := range p.errors() {
		rp.printf("  error: %s", e)
	}

	// admit_p99_ms is the median of the p99s of consecutive windows of
	// the phase: as many as possible, up to p99Windows and odd, with every
	// window holding minTailSamples admissions. A stall of the shared
	// machine that lands in one window then moves that window's tail, not
	// the metric.
	k := min(p99Windows, admit.n()/minTailSamples)
	if k%2 == 0 {
		k--
	}
	if k < 1 {
		k = 1
		rp.invalidf("admit_p99_ms needs %d samples, the phase gave %d: lengthen --seconds", minTailSamples, admit.n())
	}
	var p99s []float64
	var perWindow string
	for _, wd := range run.windows(opPost, k) {
		p99s = append(p99s, wd.p99())
		perWindow += fmt.Sprintf(" %.4f ms (n=%d)", wd.p99(), wd.n())
	}
	admitP99 := median(p99s)
	rp.printf("  admit p99 per window       %s: median %.4f ms", perWindow, admitP99)
	if lp := lag.p99(); lp > float64(lagLimit)/float64(time.Millisecond) {
		rp.invalidf("generator p99 lateness %.3f ms exceeds %v", lp, lagLimit)
	}
	if backlogGrows(q, callers) {
		rp.invalidf("backlog grows during the fixed-rate phase (quarters %.2f %.2f %.2f %.2f)", q[0], q[1], q[2], q[3])
	}
	if run.inflightMax > callers {
		rp.invalidf("%d calls in flight with %d callers", run.inflightMax, callers)
	}

	done := 0
	for _, r := range run.recs {
		if r.ok {
			done++
		}
	}
	var ratios []float64
	for i, ev := range in.fixed.events {
		if ev.op == opPost && run.recs[i].ok {
			if l := p.admitted[ev.slot]; l.AllRed > 0 {
				ratios = append(ratios, l.Phi/l.AllRed)
			}
		}
	}

	// The latency objective search.
	first := probeResult(in.fixed.rate, w.rate, run, callers, failed+skipped, 0)
	slo := sloSearch(rp, first, func(i int, rate float64) probe {
		return runProbe(rp, st, chk, w, in, callers, i, rate)
	})

	rp.printf("end of run: audit")
	for _, b := range st.audit() {
		chk.failf("%s", b)
	}
	rp.printf("  leases checked %d admissions (%d against the reference optimum)", chk.admitted, chk.optChecked)
	for _, b := range chk.bad {
		rp.printf("  VIOLATION: %s", b)
	}
	if len(chk.bad) > 0 || failed+skipped > 0 {
		rp.res.Correct = false
	}
	errFrac := float64(failed+skipped) / float64(attempted+skipped)

	rp.metric("setup_s", setup, "s")
	rp.metric("admit_p50_ms", admit.p50(), "ms")
	rp.metric("admit_p99_ms", admitP99, "ms")
	rp.metric("release_p50_ms", release.p50(), "ms")
	rp.metric("lookup_p50_ms", lookup.p50(), "ms")
	rp.metric("slo_rate_per_s", slo, "1/s")
	rp.metric("cpu_us_per_op", float64(cpu)/float64(time.Microsecond)/float64(max(done, 1)), "us")
	rp.metric("lease_ratio_mean", mean(ratios), "1")
	rp.metric("peak_rss_mb", peakRSSMB(), "MB")
	rp.printf("end-to-end metrics (fixed-rate phase unless noted):")
	for _, name := range e2eOrder {
		m := rp.res.Metrics[name]
		rp.printf("  %-18s %14.6f %-5s %s", name, m.Value, m.Unit, e2eNote(name, admit, release, lookup, len(setups), len(ratios), done))
	}
	rp.printf("  %-18s %14.6f %-5s n=%d ops (reported here; the JSON carries it as attempted/failed)",
		"error_frac", errFrac, "1", attempted+skipped)
	return nil
}

var e2eOrder = []string{"setup_s", "admit_p50_ms", "admit_p99_ms", "release_p50_ms", "lookup_p50_ms",
	"slo_rate_per_s", "cpu_us_per_op", "lease_ratio_mean", "peak_rss_mb"}

func e2eNote(name string, admit, release, lookup dist, boots, leases, ops int) string {
	switch name {
	case "setup_s":
		return fmt.Sprintf("median of n=%d boots", boots)
	case "admit_p50_ms":
		return fmt.Sprintf("n=%d", admit.n())
	case "admit_p99_ms":
		return fmt.Sprintf("median of the window p99s above, n=%d", admit.n())
	case "release_p50_ms":
		return fmt.Sprintf("n=%d", release.n())
	case "lookup_p50_ms":
		return fmt.Sprintf("n=%d", lookup.n())
	case "slo_rate_per_s":
		return fmt.Sprintf("admit p99 <= %v, no errors, no growing backlog", sloLimit)
	case "cpu_us_per_op":
		return fmt.Sprintf("n=%d ops", ops)
	case "lease_ratio_mean":
		return fmt.Sprintf("n=%d leases", leases)
	case "peak_rss_mb":
		return "VmHWM at end of run"
	}
	return ""
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}

// probe is one search step: an offered rate and whether it met the
// objective.
type probe struct {
	// nominal is the rate the schedule was drawn at; rate the rate its
	// arrivals realized.
	nominal, rate float64
	p99           float64 // admit p99 in ms (the abort threshold when aborted)
	pass          bool
	// aborted probes ran only until the generator fell behind: their
	// p99 is a lower bound, so the fit leaves them out.
	aborted bool
	why     string
}

func probeResult(rate, nominal float64, run *openRun, callers, errs int, abort time.Duration) probe {
	pr := probe{nominal: nominal, rate: rate}
	admit := run.latencies(opPost)
	pr.p99 = admit.p99()
	q := run.backlogQuarters()
	limit := float64(sloLimit) / float64(time.Millisecond)
	switch {
	case run.aborted:
		pr.aborted = true
		pr.p99 = math.Max(pr.p99, float64(abort)/float64(time.Millisecond))
		pr.why = "aborted: generator fell " + abort.String() + " behind"
	case errs > 0:
		pr.why = fmt.Sprintf("%d errors", errs)
	case admit.n() == 0:
		pr.why = "no admissions"
	case pr.p99 > limit:
		pr.why = fmt.Sprintf("p99 %.2f ms over %v", pr.p99, sloLimit)
	case backlogGrows(q, callers):
		pr.why = fmt.Sprintf("backlog grows (%.1f → %.1f)", q[1], q[3])
	default:
		pr.pass = true
		pr.why = "meets"
	}
	return pr
}

func runProbe(rp *report, st *stack, chk *checker, w *workload, in *inputs, callers, i int, rate float64) probe {
	rng := rand.New(rand.NewSource(in.seed*7919 + int64(i)))
	// Each probe draws its own arrivals and starts at its own point of the
	// generated tenant pool.
	sch := poissonSchedule(rng, rate, w.hold, probeSpan(w), len(in.tenants), i*len(in.tenants)/7)
	p := newHTTPPhase(st, in.tenants, &sch, false)
	run := p.run(callers, abortLate(w))
	attempted, failed, _ := run.counts()
	rp.res.Attempted += attempted
	rp.res.Failed += failed
	chk.checkPhase(p, run)
	pr := probeResult(sch.rate, rate, run, callers, failed, abortLate(w))
	rp.printf("  probe %d: offered %.1f/s: admit %s: %s", i, sch.rate, run.latencies(opPost), pr.why)
	return pr
}

// sloSearch finds the highest offered rate meeting the objective,
// starting from the fixed-rate phase's result: it steps the rate by
// rampFactor until one probe passes and one fails, then bisects the
// bracket geometrically. Pass and fail are noisy right at the limit, so
// the estimate is where a log-linear fit of p99 over every completed
// probe near the limit crosses it (see fitSLO), kept inside the final
// bracket (a stall in one short probe can tilt the fit far outside it)
// and capped below any probe that failed on errors or backlog rather
// than latency.
func sloSearch(rp *report, first probe, try func(i int, rate float64) probe) float64 {
	rp.printf("slo_rate_per_s search (admit p99 <= %v, zero errors, no growing backlog):", sloLimit)
	rp.printf("  probe 0: offered %.1f/s (the fixed-rate phase): %s", first.rate, first.why)
	limit := float64(sloLimit) / float64(time.Millisecond)
	var lo, hi *probe
	all := []probe{}
	note := func(pr probe) {
		all = append(all, pr)
		if pr.pass && (lo == nil || pr.nominal > lo.nominal) {
			lo = &pr
		}
		if !pr.pass && (hi == nil || pr.nominal < hi.nominal) {
			hi = &pr
		}
	}
	note(first)
	i := 1
	for step := 0; step < maxRamp && (lo == nil || hi == nil); step++ {
		r := first.nominal * math.Pow(rampFactor, float64(step+1))
		if lo == nil {
			r = first.nominal / math.Pow(rampFactor, float64(step+1))
		}
		note(try(i, r))
		i++
	}
	for step := 0; step < bisectSteps && lo != nil && hi != nil; step++ {
		note(try(i, math.Sqrt(lo.nominal*hi.nominal)))
		i++
	}
	switch {
	case lo == nil:
		rp.printf("  no probe met the objective; reporting the lowest rate tried")
		return hi.rate
	case hi == nil:
		rp.printf("  every probe met the objective; reporting the highest rate tried")
		return lo.rate
	}
	var rates, p99s []float64
	ceiling := math.Inf(1)
	for _, pr := range all {
		if !pr.aborted {
			rates, p99s = append(rates, pr.rate), append(p99s, pr.p99)
		}
		if !pr.pass && pr.p99 <= limit {
			ceiling = math.Min(ceiling, pr.rate)
		}
	}
	est, n := fitSLO(rates, p99s, limit)
	if n < 2 {
		est = lo.rate
		rp.printf("  too few probes near the limit to fit; reporting the highest passing rate")
	}
	est = math.Min(math.Max(est, math.Min(lo.rate, hi.rate)), math.Max(lo.rate, hi.rate))
	est = math.Min(est, ceiling)
	rp.printf("  bracket %.1f/s (p99 %.2f ms) .. %.1f/s (p99 %.2f ms); fit over %d probes near the limit: %.1f/s",
		lo.rate, lo.p99, hi.rate, hi.p99, n, est)
	return est
}

// fitSLO fits log p99 = a + b·rate by least squares over the probes
// whose p99 lies within a factor of four of the limit, and returns the
// rate where the fit crosses the limit, clamped to the fitted rates,
// with the number of probes used. n < 2 means no fit was possible.
func fitSLO(rates, p99s []float64, limit float64) (est float64, n int) {
	var sx, sy, sxx, sxy float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, r := range rates {
		p := p99s[i]
		if p < limit/4 || p > 4*limit {
			continue
		}
		y := math.Log(p)
		n++
		sx += r
		sy += y
		sxx += r * r
		sxy += r * y
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	if n < 2 {
		return 0, n
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den <= 0 {
		return 0, 0
	}
	b := (fn*sxy - sx*sy) / den
	a := (sy - b*sx) / fn
	if b <= 0 {
		// p99 does not rise with rate over these probes: the limit is
		// crossed by noise, not load; report the middle of them.
		return (lo + hi) / 2, n
	}
	return math.Min(math.Max((math.Log(limit)-a)/b, lo), hi), n
}
